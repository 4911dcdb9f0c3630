"""Ablation bench: bank-interleaving policy under SuperMem.

DESIGN.md commits to page interleaving (one page per bank, contiguous
allocations spanning adjacent banks) as the model consistent with the
paper's Section 3.3 premise and with split-counter physics. This bench
measures the alternatives:

* ``line`` interleaving maximises intra-burst bank parallelism (an
  idealisation — a page's counter line has no single home bank);
* ``contiguous`` slabs serialise a single program onto one bank — the
  strawman that shows why interleaving exists.
"""

import dataclasses

from repro.common.config import MemoryConfig, SimConfig
from repro.core.schemes import Scheme, scheme_config
from repro.sim.simulator import Simulator
from repro.workloads.generator import generate_trace

MAPPINGS = ("page", "line", "contiguous")


def test_bank_mapping(run_once, benchmark):
    def run_all():
        trace = generate_trace(
            "array", n_ops=60, request_size=1024, footprint=1 << 20, seed=1
        )
        results = {}
        for mapping in MAPPINGS:
            cfg = dataclasses.replace(
                scheme_config(
                    Scheme.SUPERMEM,
                    SimConfig(
                        memory=MemoryConfig(capacity=32 << 20, bank_mapping=mapping)
                    ),
                ),
                fidelity="timing",
            )
            result = Simulator(cfg).run(list(trace.ops))
            results[mapping] = result.avg_txn_latency_ns
        return results

    latency = run_once(run_all)
    # Contiguous slabs must be the worst: one program, one busy bank.
    assert latency["contiguous"] >= max(latency["page"], latency["line"]) * 0.99
    # The chosen page interleaving must be within 2x of the idealised
    # line interleaving (they bound the design space).
    assert latency["page"] <= 2.0 * latency["line"]
    benchmark.extra_info["latency_ns"] = {m: round(v) for m, v in latency.items()}
