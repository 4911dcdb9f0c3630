"""Unit tests for the timed recovery-cost model.

Covers the meter's charging mechanics (bank occupancy, bus, AES,
freeze), the scenario driver's parameter validation, and the Section 6
cost shapes the model exists to produce: SuperMem flat in capacity, the
SCA scan linear, Osiris pricing a trial per written line, and the log /
RSR knobs moving only SuperMem's own terms.
"""

import random

import pytest

from repro.common.address import BANK_MAPPINGS
from repro.common.config import MemoryConfig, SimConfig, TimingConfig
from repro.common.errors import ConfigError, SimulationError
from repro.core.recovery_cost import (
    RecoveryMeter,
    _payload,
    recovery_trace_events,
    run_recovery_scenario,
)
from repro.core.schemes import Scheme
from repro.obs.events import CAT_RECOVERY, PH_COMPLETE, PH_INSTANT


def _config(capacity=8 << 20):
    return SimConfig(memory=MemoryConfig(capacity=capacity))


class TestRecoveryMeter:
    def test_single_read_costs_the_bank_service_time(self):
        config = _config()
        meter = RecoveryMeter(config)
        meter.nvm_read(0)
        assert meter.time_ns == config.timing.read_service_ns
        assert meter.nvm_reads == 1
        assert meter.data_line_reads == 1
        assert meter.counter_line_reads == 0

    def test_counter_flag_classifies_the_read(self):
        meter = RecoveryMeter(_config())
        meter.nvm_read(0, counter=True)
        assert meter.counter_line_reads == 1
        assert meter.data_line_reads == 0

    def test_write_costs_more_than_read(self):
        config = _config()
        read_meter, write_meter = RecoveryMeter(config), RecoveryMeter(config)
        read_meter.nvm_read(0)
        write_meter.nvm_write(0)
        assert write_meter.time_ns > read_meter.time_ns
        assert write_meter.time_ns == config.timing.write_service_ns

    def test_same_bank_serialises_and_different_banks_overlap(self):
        config = _config()
        amap = config.address_map()
        same, cross = RecoveryMeter(config), RecoveryMeter(config)
        lines = amap.lines_of_page(0)
        same.nvm_read(lines[0])
        same.nvm_read(lines[1])  # one page = one bank
        other_page = next(
            p for p in range(1, amap.n_pages)
            if amap.bank_of_line(amap.lines_of_page(p)[0]) != amap.bank_of_line(lines[0])
        )
        cross.nvm_read(lines[0])
        cross.nvm_read(amap.lines_of_page(other_page)[0])
        assert same.time_ns >= 2 * config.timing.read_service_ns
        assert cross.time_ns < same.time_ns

    def test_aes_accumulates_on_the_crypto_timeline(self):
        config = _config()
        meter = RecoveryMeter(config)
        meter.aes(100)
        assert meter.aes_ops == 100
        assert meter.time_ns == 100 * config.timing.aes_ns

    @pytest.mark.parametrize("bank_mapping", BANK_MAPPINGS)
    @pytest.mark.parametrize("frozen", [False, True])
    @pytest.mark.parametrize(
        "timing",
        # The defaults add exactly; the other's sums round, so any change
        # to the order of the float additions shows.
        [
            TimingConfig(),
            TimingConfig(
                cpu_freq_ghz=3.0, aes_cycles=25, trcd_ns=47.3, tcl_ns=15.1, bus_ns=0.7
            ),
        ],
    )
    def test_counter_scan_prices_like_per_line_reads_and_verifies(
        self, bank_mapping, frozen, timing
    ):
        config = SimConfig(
            memory=MemoryConfig(capacity=8 << 20, bank_mapping=bank_mapping),
            timing=timing,
        )
        n_lines = config.address_map().n_lines
        one_call, per_line = RecoveryMeter(config), RecoveryMeter(config)
        for meter in (one_call, per_line):
            # Charges already on every timeline before the scan starts.
            for line in (0, 4096, 70_000):
                meter.nvm_read(line)
                meter.nvm_write(line + 1)
            meter.aes(3)
            meter.hash(2)
            if frozen:
                meter.freeze()
        first, count = n_lines + 5, 700
        one_call.scan_counter_lines(first, count)
        for line in range(first, first + count):
            per_line.nvm_read(line, counter=True)
            per_line.aes()
        assert vars(one_call) == vars(per_line)
        assert one_call.counter_line_reads == (0 if frozen else count)

    def test_freeze_stops_all_accounting(self):
        meter = RecoveryMeter(_config())
        meter.nvm_read(0)
        before = meter.time_ns
        meter.freeze()
        meter.nvm_read(1)
        meter.nvm_write(2)
        meter.aes(10)
        assert meter.time_ns == before
        assert meter.nvm_reads == 1
        assert meter.aes_ops == 0

    def test_requires_a_configuration(self):
        with pytest.raises(SimulationError):
            RecoveryMeter(None)


class TestPayload:
    @pytest.mark.parametrize("seed", [1, 2, 3, 99])
    def test_draws_exactly_what_randrange_draws(self, seed):
        fast, reference = random.Random(seed), random.Random(seed)
        for size in (0, 1, 2, 63, 64, 255, 256, 1000, 4096):
            payload = _payload(fast, size)
            assert payload == bytes(reference.randrange(1, 256) for _ in range(size))
            assert fast.getstate() == reference.getstate()


class TestScenarioValidation:
    def test_rejects_out_of_range_dirty_frac(self):
        for bad in (-0.1, 1.5):
            with pytest.raises(ConfigError):
                run_recovery_scenario(Scheme.SUPERMEM, dirty_frac=bad)

    def test_rejects_unknown_rsr_mode(self):
        with pytest.raises(ConfigError):
            run_recovery_scenario(Scheme.SUPERMEM, rsr="bogus")

    def test_rejects_degenerate_log(self):
        with pytest.raises(ConfigError):
            run_recovery_scenario(Scheme.SUPERMEM, log_lines=1)


def _scenario(scheme, **kwargs):
    kwargs.setdefault("n_txns", 8)
    report, recovered, shadow = run_recovery_scenario(scheme, **kwargs)
    return report, recovered, shadow


class TestSectionSixShapes:
    def test_supermem_recovery_is_flat_in_capacity(self):
        small, _, _ = _scenario(Scheme.SUPERMEM, base_config=_config(8 << 20))
        large, _, _ = _scenario(Scheme.SUPERMEM, base_config=_config(32 << 20))
        assert large.time_ns <= small.time_ns * 1.2

    def test_sca_scan_is_linear_in_capacity(self):
        small, _, _ = _scenario(Scheme.SCA, base_config=_config(8 << 20))
        large, _, _ = _scenario(Scheme.SCA, base_config=_config(32 << 20))
        assert large.counter_region_lines == 4 * small.counter_region_lines
        assert large.time_ns > 2 * small.time_ns

    def test_sca_scan_reads_each_counter_line_once(self):
        """The scan phase is one verified read per page's counter line,
        priced exactly as a fresh meter prices ``n_pages`` of them."""
        config = _config(8 << 20)
        amap = config.address_map()
        report, _, _ = _scenario(Scheme.SCA, base_config=config)
        assert report.counter_region_lines == amap.n_pages
        assert report.counter_line_reads >= amap.n_pages
        meter = RecoveryMeter(config)
        meter.scan_counter_lines(amap.n_lines, amap.n_pages)
        assert report.phases[0] == ("counter-scan", 0.0, meter.time_ns)

    def test_ordering_supermem_cheapest_on_same_parameters(self):
        config = _config(16 << 20)
        supermem, _, _ = _scenario(Scheme.SUPERMEM, base_config=config)
        sca, _, _ = _scenario(Scheme.SCA, base_config=config)
        osiris, _, _ = _scenario(Scheme.OSIRIS, base_config=config)
        assert supermem.time_ns <= sca.time_ns
        assert supermem.time_ns <= osiris.time_ns

    def test_osiris_prices_a_trial_per_written_line(self):
        report, _, _ = _scenario(Scheme.OSIRIS)
        assert report.trial_decryptions >= report.written_data_lines - report.log_lines_scanned
        assert report.trial_decryptions > 0

    def test_log_size_is_supermem_growth_term(self):
        short, _, _ = _scenario(Scheme.SUPERMEM, log_lines=128)
        long, _, _ = _scenario(Scheme.SUPERMEM, log_lines=512)
        assert short.log_lines_scanned == 128
        assert long.log_lines_scanned == 512
        assert long.time_ns > short.time_ns

    def test_armed_rsr_adds_a_bounded_resume(self):
        off, _, _ = _scenario(Scheme.SUPERMEM, rsr="off")
        armed, _, _ = _scenario(Scheme.SUPERMEM, rsr="armed")
        assert off.rsr_lines_resumed == 0
        assert armed.rsr_lines_resumed > 0
        assert armed.time_ns > off.time_ns
        assert armed.nvm_writes >= armed.rsr_lines_resumed

    def test_supermem_audit_is_clean_and_free(self):
        report, recovered, shadow = _scenario(Scheme.SUPERMEM)
        reads_before = recovered.meter.nvm_reads if recovered.meter else None
        assert recovered.audit_against_shadow(shadow) == {}
        if recovered.meter is not None:  # frozen: the audit was free
            assert recovered.meter.nvm_reads == reads_before
        assert report.time_ns > 0


class TestReportShape:
    def test_phases_are_ordered_and_cover_the_total(self):
        report, _, _ = _scenario(Scheme.SCA)
        assert [name for name, _, _ in report.phases][0] == "counter-scan"
        last_end = 0.0
        for _name, start, end in report.phases:
            assert start >= last_end or start == pytest.approx(last_end)
            assert end >= start
            last_end = end
        assert last_end == pytest.approx(report.time_ns)

    def test_to_dict_round_trips_every_counter(self):
        report, _, _ = _scenario(Scheme.SUPERMEM)
        record = report.to_dict()
        assert record["path"] == "supermem"
        assert record["time_ns"] == report.time_ns
        assert record["log_lines_scanned"] == report.log_lines_scanned
        assert isinstance(record["phases"], list)

    def test_trace_events_mirror_the_phases(self):
        report, _, _ = _scenario(Scheme.SUPERMEM, rsr="armed")
        events = recovery_trace_events(report)
        completes = [e for e in events if e.ph == PH_COMPLETE]
        instants = [e for e in events if e.ph == PH_INSTANT]
        assert len(completes) == len(report.phases)
        assert len(instants) == 1
        assert all(e.cat == CAT_RECOVERY for e in events)
