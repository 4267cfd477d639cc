"""Generate EXPERIMENTS.md from saved experiment results.

``python -m repro.harness.report [results_dir] [output_md]`` turns the
JSON records written by :func:`repro.harness.runner.run_all` into the
paper-vs-measured markdown report.  EXPERIMENTS.md in the repository root
is produced this way; regenerate it after any engine change with::

    python -m repro experiment all --out results/
    python -m repro.harness.report results/ EXPERIMENTS.md

The routing service's SQLite repository (docs/SERVICE.md) is a second
source: ``python -m repro.harness.report --service svc.sqlite [out]``
renders the cumulative run history and every experiment table stored
there, by the daemon or by ``locusroute experiment --db`` — the
queryable alternative to a directory of one-shot JSON files.
"""

from __future__ import annotations

import sys
import time
from pathlib import Path
from typing import Dict, List, Optional

from .experiments import EXPERIMENTS
from .runner import load_result
from .tables import format_value

__all__ = ["render_markdown", "render_service_report", "main"]

_PREAMBLE = """\
# EXPERIMENTS — paper vs measured

Reproduction record for every table and in-text result of Martonosi &
Gupta, *Tradeoffs in Message Passing and Shared Memory Implementations of
a Standard Cell Router* (ICPP 1989).  Generated by
`python -m repro.harness.report` from the JSON written by
`python -m repro experiment all --out results/`.

**How to read the numbers.** The paper's circuits (bnrE, MDC) were never
published; all runs here use the seeded synthetic stand-ins described in
DESIGN.md §2, so *absolute* heights/occupancies/megabytes differ from the
paper. What the reproduction targets — and what each experiment's *shape
checks* assert — are the paper's qualitative claims: orderings, monotone
trends, ratio bands, and crossover behaviour. `paper_*` columns carry the
published values for side-by-side trend comparison.
"""

_NOTES: Dict[str, str] = {
    "T1": (
        "Paper claims reproduced: traffic is a clear, sublinear function of "
        "SendLocData frequency and nearly independent of SendRmtData; "
        "execution time falls as updates get rarer (packet handling cost); "
        "circuit height shows little correlation with the schedule."
    ),
    "T2": (
        "Paper claims reproduced: receiver-initiated traffic is far below "
        "sender-initiated at comparable quality and collapses at sparse "
        "request rates; execution time is lower than sender-initiated and "
        "nearly flat across schedules (less message processing overhead)."
    ),
    "T3": (
        "Direction reproduced: bus traffic grows with cache line size, "
        "driven by invalidation refetches and write-miss fetches on the "
        "strided (interior-channel) references, and >80 % of bytes are "
        "write-caused. **Known muted magnitude**: the paper measures ~6x "
        "growth from 4 B to 32 B lines; our growth is ~1.3x because the "
        "Tango-style trace records *access bursts* (one deduplicated sweep "
        "per evaluation chunk) rather than every individual reference, so "
        "fine-grained read/write interleaving that multiplies "
        "invalidation-refetch ping-pong in the paper's per-reference traces "
        "is coalesced here. Ablation A9 pins this down: burst-level protocol "
        "processing is provably lossless for a given trace, and measured "
        "traffic rises steadily as the *recorded* interleaving is refined "
        "— the gap is recording granularity, not simulation fidelity. The "
        "burst model keeps full-circuit coherence simulation tractable in "
        "pure Python; see DESIGN.md §5."
    ),
    "T4": (
        "Paper claims reproduced: locality-aware assignment beats round "
        "robin on quality; the fully local extreme minimises traffic but "
        "blows up execution time through load imbalance; the best time sits "
        "at a moderate threshold (TC=30), exactly the paper's tradeoff."
    ),
    "T5": (
        "Paper claims reproduced: exploiting locality in the shared memory "
        "version reduces bus traffic without hurting quality (and generally "
        "improving it) — the paper's 'useful optimisation' conclusion."
    ),
    "T6": (
        "Paper claims reproduced: quality degrades as processors are added "
        "(more wires routed concurrently blind); execution time scales to a "
        "speedup of ~12 at 16 processors; network traffic *peaks at 4 "
        "processors and then falls* — not because less communication is "
        "needed but because smaller owned regions make tighter bounding "
        "boxes (the paper's own caveat)."
    ),
    "X1": (
        "Paper claims reproduced: blocking requesters idle for their "
        "responses and run substantially slower (paper: up to 75 % slower) "
        "while the non-blocking scheme's quality is no worse — late updates "
        "are still useful for nearby and next-iteration wires."
    ),
    "X2": (
        "Paper claims reproduced: the mixed schedule competes with the "
        "pure sender scheme on occupancy at lower traffic than the eager "
        "sender configurations it embeds."
    ),
    "X3": (
        "Paper claims reproduced: shared memory yields the best circuit "
        "height; its coherence traffic is an order of magnitude above the "
        "sender-initiated message passing traffic, which is in turn one to "
        "two orders above sparse receiver-initiated traffic; >80 % of "
        "shared memory bytes are caused by writes."
    ),
    "X4": (
        "Paper claims reproduced: even the most local assignment routes "
        "wire segments a nonzero average distance from their owner (the "
        "circuit's intrinsic locality limit), and MDC is more local than "
        "bnrE. Absolute hop counts run ~0.3 higher than the paper's "
        "(1.21/0.91) because the synthetic netlists carry a slightly "
        "longer-range wire mix."
    ),
    "X5": (
        "Paper claims reproduced: speedups at 16 processors land in the "
        "paper's band (~12), using the paper's normalisation (2 x T2 / "
        "T16)."
    ),
    "A1": (
        "Ablation (beyond the paper's tables): measures the §4.3.1 packet "
        "structure discussion — shipping whole owned regions costs the "
        "most; the chosen bounding-box optimisation cuts that by more than "
        "half; wire-based encodings are size-competitive but were rejected "
        "for processing convenience."
    ),
    "A2": (
        "Ablation: tests the §5.1.3 prediction directly.  With the paper's "
        "polled between-wires message servicing, blocking requesters pay a "
        "large penalty; with interrupt-driven reception (which CBS could "
        "not simulate) the penalty collapses — confirming 'the blocking "
        "strategy would probably become more effective'."
    ),
    "A3": (
        "Ablation: implements both §4.2 dynamic wire-distribution schemes "
        "the paper reasoned about but could not run.  A polled "
        "wire-assignment processor leaves requesters waiting most of a "
        "wire's routing time per task; interrupt servicing cuts the wait "
        "by an order of magnitude and makes dynamic distribution "
        "competitive with static assignment."
    ),
    "A4": (
        "Ablation: the §5.3.2 hierarchical machine.  With remote "
        "references costing 10x local ones, locality-aware assignment "
        "suffers visibly less slowdown than round robin — 'locality will "
        "become an important part of future program design'."
    ),
    "A5": (
        "Ablation: the other Archibald & Baer protocol family.  On "
        "LocusRoute's read-dominated cost-array sharing a write-update "
        "protocol moves fewer bytes than write-back-invalidate and its "
        "traffic barely depends on the line size (word broadcasts instead "
        "of line refetches) — the protocol tradeoff behind the paper's "
        "§5.2 traffic accounting, measured on the same traces."
    ),
    "A6": (
        "Ablation: Table 3's footnote 3, quantified.  Finite direct-mapped "
        "caches add capacity/conflict misses and dirty-eviction "
        "write-backs on top of the coherence traffic; traffic falls "
        "monotonically toward the infinite-cache value as the cache "
        "grows."
    ),
    "A7": (
        "Ablation: the staleness mechanism itself, measured.  The L1 error "
        "between a node's local view and the true cost array over its "
        "routed cells falls with any update scheme relative to routing "
        "blind — the quantity every quality result in the paper varies "
        "through."
    ),
    "A8": (
        "Ablation: the conclusions' 'more sophisticated wire assignment "
        "heuristics' suggestion, implemented.  Centroid assignment beats "
        "leftmost-pin on locality and traffic but concentrates load — the "
        "same locality/balance tension as ThresholdCost=infinity."
    ),
    "A9": (
        "Ablation: methodology check on the T3 caveat.  Replaying the "
        "same trace per-reference instead of per-burst yields *identical* "
        "traffic (the analytic per-reference model is validated against a "
        "brute-force protocol state machine), while refining the recorded "
        "interleaving (more sweeps per evaluation) steadily raises "
        "traffic — locating the paper-vs-us Table 3 magnitude gap in "
        "trace recording granularity."
    ),
    "R1": (
        "Robustness: the headline orderings are not artifacts of the "
        "canonical circuit seed — they hold on independently generated "
        "bnrE-like instances."
    ),
    "X6": (
        "§3's premise, verified: rip-up and reroute iterations "
        "monotonically improve the sequential solution and the parallel "
        "run converges the same way."
    ),
    "X7": (
        "Beyond the paper: the live routers — real worker processes on "
        "real cores, a real shared-memory cost array, real update packets "
        "over pipes — next to the virtual-time simulators on the same "
        "circuit.  Quality lands within the documented tolerance of the "
        "matching simulator, commit-log replay verifies every run, and "
        "the table shows wall clock beside the simulators' modelled time."
    ),
    "F1": (
        "Beyond the paper: the §4.1 loose-consistency argument under "
        "actual packet loss.  Blocking receiver-initiated runs — which "
        "deadlock on the first lost response without recovery — complete "
        "at every drop rate via the staleness watchdog (retry with "
        "exponential backoff, then abandon to the stale view); recovery "
        "effort scales with the drop rate while final quality degrades "
        "only gently, and the conservation invariants stay green on the "
        "transmitted traffic (see docs/FAULTS.md)."
    ),
    "F2": (
        "Beyond the paper: fail-stop processor crashes mid-run.  "
        "Survivors detect each death (watchdog suspicion, heartbeat "
        "probe, gossiped death notice), re-own the orphaned cost-array "
        "regions over a consistent-hash ring, adopt the dead node's "
        "unfinished wires, and still route every wire — with up to a "
        "quarter of the machine gone.  Detection latency stays inside "
        "the probe budget, quality degrades gracefully, the ownership "
        "and conservation invariants stay green, and crashed runs are "
        "bit-for-bit deterministic (see docs/FAULTS.md)."
    ),
}


def _table_md(columns: List[str], rows: List[dict]) -> List[str]:
    lines = ["| " + " | ".join(columns) + " |"]
    lines.append("|" + "|".join("---" for _ in columns) + "|")
    for row in rows:
        lines.append(
            "| " + " | ".join(format_value(row.get(c)) for c in columns) + " |"
        )
    return lines


def render_markdown(results_dir: Path) -> str:
    """Render the full EXPERIMENTS.md text from saved results."""
    parts = [_PREAMBLE]
    missing = []
    for exp_id in EXPERIMENTS:
        record = load_result(exp_id, results_dir)
        if record is None:
            missing.append(exp_id)
            continue
        parts.append(f"\n## {exp_id} — {record['title']}\n")
        parts.extend(_table_md(record["columns"], record["rows"]))
        parts.append("")
        if record.get("notes"):
            parts.append(f"*{record['notes']}*\n")
        parts.append("Shape checks:")
        for name, ok in record["checks"].items():
            parts.append(f"- {'✅' if ok else '❌'} {name}")
        parts.append("")
        if exp_id in _NOTES:
            parts.append(_NOTES[exp_id])
            parts.append("")
    if missing:
        parts.append(
            f"\n*(missing results for: {', '.join(missing)} — run "
            f"`python -m repro experiment all --out results/`)*"
        )
    return "\n".join(parts)


def _stamp(unix: Optional[float]) -> str:
    if not isinstance(unix, (int, float)):
        return "-"
    return time.strftime("%Y-%m-%d %H:%M:%S", time.gmtime(unix)) + "Z"


def render_service_report(db_path: Path, limit: int = 50) -> str:
    """Render run history + persisted tables from a service repository.

    The SQLite repository written by ``locusroute serve`` and
    ``locusroute experiment`` (see docs/SERVICE.md) holds every
    submission and every stored result;
    this renders the markdown view of it: status counts, the recent
    submission log (with dedup/repository provenance), the stored-result
    summary, and — for persisted ``experiment`` results — the full
    paper-vs-measured table and shape checks, exactly as
    :func:`render_markdown` would show them from a results directory.
    """
    from ..service.repository import Repository

    repo = Repository(db_path)
    try:
        counts = repo.counts()
        jobs = repo.jobs(limit=limit)
        results = repo.history(limit=limit)
        parts = [
            f"# Routing service report — `{db_path}`",
            "",
            "## Job counts",
            "",
        ]
        if counts:
            parts.extend(
                _table_md(
                    ["status", "jobs"],
                    [{"status": s, "jobs": n} for s, n in sorted(counts.items())],
                )
            )
        else:
            parts.append("*(no submissions recorded)*")
        parts += ["", f"## Recent submissions (newest first, limit {limit})", ""]
        if jobs:
            columns = ["job_id", "kind", "status", "source", "dedup_of", "submitted"]
            parts.extend(
                _table_md(
                    columns,
                    [
                        {
                            "job_id": j.get("job_id"),
                            "kind": j.get("kind"),
                            "status": j.get("status"),
                            "source": j.get("source"),
                            "dedup_of": j.get("dedup_of") or "-",
                            "submitted": _stamp(j.get("submitted_unix")),
                        }
                        for j in jobs
                    ],
                )
            )
        else:
            parts.append("*(no submissions recorded)*")
        parts += ["", "## Stored results", ""]
        if results:
            parts.extend(
                _table_md(
                    ["fingerprint", "kind", "wall_s", "created"],
                    [
                        {
                            "fingerprint": r["fingerprint"][:12],
                            "kind": r["kind"],
                            "wall_s": r.get("wall_s"),
                            "created": _stamp(r.get("created_unix")),
                        }
                        for r in results
                    ],
                )
            )
        else:
            parts.append("*(no results stored)*")
        # Persisted experiments render as full paper-vs-measured tables.
        for summary in results:
            if summary["kind"] != "experiment":
                continue
            record = repo.get_result(summary["fingerprint"])
            if record is None:
                continue
            payload = record["payload"]
            if not all(k in payload for k in ("columns", "rows", "checks")):
                continue
            title = payload.get("title", payload.get("exp_id", "experiment"))
            parts.append(f"\n## {payload.get('exp_id', '?')} — {title}\n")
            parts.extend(_table_md(payload["columns"], payload["rows"]))
            parts.append("")
            parts.append("Shape checks:")
            for name, ok in payload["checks"].items():
                parts.append(f"- {'✅' if ok else '❌'} {name}")
            parts.append("")
        return "\n".join(parts) + "\n"
    finally:
        repo.close()


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point.

    ``python -m repro.harness.report [dir] [out]`` renders EXPERIMENTS.md
    from a results directory; ``... --service DB [out]`` renders the
    routing-service repository report instead.
    """
    args = list(argv) if argv is not None else sys.argv[1:]
    if args and args[0] == "--service":
        if len(args) < 2:
            print("usage: python -m repro.harness.report --service DB [out]")
            return 2
        db_path = Path(args[1])
        out_path = Path(args[2]) if len(args) > 2 else Path("SERVICE_REPORT.md")
        out_path.write_text(render_service_report(db_path))
        print(f"wrote {out_path}")
        return 0
    results_dir = Path(args[0]) if args else Path("results")
    out_path = Path(args[1]) if len(args) > 1 else Path("EXPERIMENTS.md")
    out_path.write_text(render_markdown(results_dir))
    print(f"wrote {out_path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
