"""CLAIM-SHARE: UNILOGIC shared accelerator pools (Section 4.1).

"Sharing of the limited reconfigurable resources between Workers is very
important."  We compare two provisionings of the same silicon, 2
accelerator blocks on 8 Workers:

- **shared pool**: the 2 blocks serve all 8 Workers via UNILOGIC;
- **private**: each Worker may only use a block it owns, so 6 Workers
  fall back to software.

The shared pool runs every call in hardware for about 7x less energy,
but its 2 blocks serialize all 24 calls, so its makespan is about 2.6x
the private run's (0.50 vs 0.19 ms), where 6 Workers compute in
software in parallel.  Sharing trades latency for energy and
utilization; the checks assert both sides of that trade.
"""

import pytest

from conftest import print_table
from repro.core import ComputeNode, ComputeNodeParams, UnilogicDomain
from repro.fabric import ModuleLibrary
from repro.hls import HlsTool, SynthesisConstraints, montecarlo_kernel
from repro.sim import AllOf, Simulator, spawn

WORKERS = 8
CALLS_PER_WORKER = 3
ITEMS = 4096


def _module():
    library = ModuleLibrary()
    HlsTool().compile(
        montecarlo_kernel(ITEMS, 8), library, SynthesisConstraints(max_variants=1)
    )
    return library.best_variant("montecarlo")


MODULE = _module()


def run_provisioning(mode):
    """mode: 'shared' (2 blocks, UNILOGIC) or 'private' (2 blocks, owner-only)."""
    sim = Simulator()
    node = ComputeNode(sim, ComputeNodeParams(num_workers=WORKERS))
    unilogic = UnilogicDomain(node)
    hosts = [0, 4]
    done = []

    def worker_job(worker_id):
        kernel = montecarlo_kernel(ITEMS, 8)
        for _ in range(CALLS_PER_WORKER):
            if mode == "shared" or worker_id in hosts:
                yield from unilogic.invoke(
                    "montecarlo", worker_id, ITEMS, data_worker=worker_id
                )
            else:
                # private mode: no block you own -> software
                yield from node.worker(worker_id).run_software(kernel, ITEMS)
        done.append(sim.now)

    def main():
        for h in hosts:
            yield from node.worker(h).load_module(MODULE)
        procs = [spawn(sim, worker_job(w), name=f"job{w}") for w in range(WORKERS)]
        yield AllOf(procs)

    spawn(sim, main())
    sim.run()
    hw_calls = len(unilogic.invocations)
    return {
        "makespan_ns": max(done),
        "energy_pj": node.ledger.total_pj(),
        "hw_calls": hw_calls,
        "remote_invocations": unilogic.remote_invocations,
    }


def test_claim_sharing_pool_beats_private_blocks(benchmark):
    results = benchmark(lambda: {m: run_provisioning(m) for m in ("shared", "private")})
    rows = [
        (m, r["makespan_ns"] / 1e6, r["energy_pj"] / 1e9, r["hw_calls"],
         r["remote_invocations"])
        for m, r in results.items()
    ]
    print_table(
        "CLAIM-SHARE: 2 accelerator blocks, 8 workers x 3 calls",
        ["provisioning", "makespan (ms)", "energy (mJ)", "hw calls", "remote invocations"],
        rows,
    )
    shared, private = results["shared"], results["private"]
    assert shared["hw_calls"] == WORKERS * CALLS_PER_WORKER
    assert private["hw_calls"] == 2 * CALLS_PER_WORKER
    assert shared["remote_invocations"] > 0
    # sharing converts software calls to hardware: big energy win
    assert shared["energy_pj"] < 0.7 * private["energy_pj"]
    # ... paid for in latency: the 2 pooled blocks serialize every call
    assert shared["makespan_ns"] > private["makespan_ns"]


def test_claim_sharing_utilization(benchmark):
    def run():
        sim = Simulator()
        node = ComputeNode(sim, ComputeNodeParams(num_workers=WORKERS))
        unilogic = UnilogicDomain(node)

        def main():
            yield from node.worker(0).load_module(MODULE)
            for w in range(WORKERS):
                yield from unilogic.invoke("montecarlo", w, ITEMS, data_worker=w)

        spawn(sim, main())
        sim.run()
        return unilogic.utilization_by_worker()

    util = benchmark(run)
    print_table(
        "CLAIM-SHARE: invocations served per hosting worker",
        ["worker", "invocations hosted"],
        sorted(util.items()),
    )
    # one block served the entire domain
    assert util[0] == WORKERS
    assert sum(v for w, v in util.items() if w != 0) == 0
