"""One benchmark worker: a fresh interpreter that imports k3lat, builds its
inputs, runs one pass of a workload, checks every output and prints one
JSON line on stdout.

A fresh process per pass is what a command-line user pays, and it keeps the
package's ``lru_cache``s from making a repeated pass free.  The worker
starts a ``HostClock`` before anything else and reports its times in
reference seconds, with the raw wall times beside them.  ``run.py``
starts the workers one at a time; run this file directly only to debug a
single pass:

    PYTHONPATH=src PYTHONHASHSEED=0 python3 k3bench/worker.py \
        --workload genus-conjugates --seed 1 --batch 0
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import random
import resource
import time
import traceback
from pathlib import Path

from hostclock import HostClock

GOLDEN = json.loads((Path(__file__).parent / "golden.json").read_text())

# genus-conjugates: node budget of every forms_isomorphic search, and the
# shape of one batch.  Changing any of these changes the workload.
GENUS_BUDGET = 3000
CONJUGATES_PER_BASE = 3
UNIMODULAR_STEPS = 40
# Rank-9 families with |A| <= 2048, each paired with itself (expect True).
GENUS_BASES = (
    [("L", d) for d in (1, 2, 3, 4)] + [("M", d) for d in (1, 2, 4, 8)]
    + [("Mp", d) for d in (2, 4, 8, 16)] + [("Lp", d) for d in (2, 4, 8, 16)])
# Same determinant, different length (expect False): L(d,2) has length 9
# and M(4d,2) length 7; M(d,2) has length 7 and Mp(4d,2) length 5.
GENUS_PARTNERS = (
    [(("L", d), ("M", 4 * d)) for d in (1, 2, 3, 4)]
    + [(("M", d), ("Mp", 4 * d)) for d in (1, 2, 4)])


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def _canonical(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def _run_cli(cli, argv):
    """Call ``cli.main(argv)`` with stdout captured; returns (rc, stdout).

    An exception becomes rc None and no output, so every operation of the
    pass counts as failed and the run goes on."""
    buf = io.StringIO()
    try:
        with contextlib.redirect_stdout(buf):
            rc = cli.main(argv)
    except Exception:
        traceback.print_exc()
        return None, ""
    return rc, buf.getvalue()


# ---------------------------------------------------------------------------
# Output gates.  Each returns (operations, failed, decided, problems).
# ---------------------------------------------------------------------------


def check_verify_all(rc: int, out: str):
    """Every entry against its golden (check, status, entry digest), then the
    whole payload against the canonical-JSON sha256."""
    want = GOLDEN["verify_all"]
    problems = []
    try:
        entries = json.loads(out)
    except ValueError:
        entries = None
    if not isinstance(entries, list):
        entries = []
        problems.append("verify all --json printed no JSON list")
    failed = 0
    for i, (check, status, digest) in enumerate(want["entries"]):
        got = entries[i] if i < len(entries) else None
        if got is None or _sha(_canonical(got)) != digest:
            failed += 1
            problems.append(f"entry {i} {check} ({status}) differs from golden: got "
                            f"{None if got is None else (got['check'], got['status'])}")
    failed += max(0, len(entries) - len(want["entries"]))
    if _sha(out) != want["sha256"]:
        problems.append(f"verify all --json sha256 {_sha(out)} != {want['sha256']}")
    if rc != 0:
        problems.append(f"verify all exited {rc}")
    decided = sum(e.get("status") != "inconclusive" for e in entries)
    return len(want["entries"]), failed, decided, problems


def check_evenset(rc: int, out: str):
    """Per-pencil set counts and displayed_set_found, then the payload hash."""
    want = GOLDEN["evenset_b6"]
    problems = []
    try:
        pencils = json.loads(out)["pencils"]
    except (ValueError, KeyError):
        pencils = {}
        problems.append("evenset printed no pencil records")
    failed = 0
    for label, count in want["counts"].items():
        got = pencils.get(label)
        if got != {"count": count, "displayed_set_found": True}:
            failed += 1
            problems.append(f"pencil {label}: expected {count} sets with the "
                            f"displayed set found, got {got}")
    if _sha(out) != want["sha256"]:
        problems.append(f"evenset sha256 {_sha(out)} != {want['sha256']}")
    if rc != 0:
        problems.append(f"evenset exited {rc}")
    return len(want["counts"]), failed, len(pencils), problems


# ---------------------------------------------------------------------------
# Workloads.  setup() builds the inputs; run() does one timed pass and
# returns (pass span, query spans, operations, failed, decided, problems).
# A span is a (start, end) pair of time.monotonic() readings.
# ---------------------------------------------------------------------------


class CliWorkload:
    """One ``k3lat.cli.main`` call per pass, checked by ``check``."""

    def __init__(self, argv: list[str], check) -> None:
        self.argv = argv
        self.check = check

    def setup(self, seed: int, batch: int) -> None:
        import k3lat.cli
        self.cli = k3lat.cli

    def run(self):
        t0 = time.monotonic()
        rc, out = _run_cli(self.cli, self.argv)
        span = (t0, time.monotonic())
        return (span, [span]) + self.check(rc, out)


class VerifyAll(CliWorkload):
    """``k3lat verify all --json``: every layer in its real proportions."""

    def __init__(self) -> None:
        super().__init__(["verify", "all", "--json"], check_verify_all)

    def run_suites(self):
        """``verify <suite>`` for each suite in SUITES order, in this one
        process; the concatenated entries must equal ``verify all``."""
        suite_spans = {}
        entries = []
        rc_all = 0
        for name in self.cli.SUITES:
            t0 = time.monotonic()
            rc, out = _run_cli(self.cli, ["verify", name, "--json"])
            suite_spans[name] = (t0, time.monotonic())
            rc_all = rc_all or rc
            entries.extend(json.loads(out) if out else [])
        span = (suite_spans[self.cli.SUITES[0]][0], time.monotonic())
        checked = check_verify_all(rc_all, _canonical(entries) + "\n")
        return (span, [span]) + checked, suite_spans


class EvensetB6(CliWorkload):
    """``k3lat evenset --bound 6``: nsgeometry and fp_enumerate only."""

    def __init__(self) -> None:
        super().__init__(["evenset", "--bound", "6"], check_evenset)


def _unimodular(rng: random.Random, n: int, steps: int) -> list[list[int]]:
    """A random GL_n(Z) matrix: row transvections, then a row shuffle."""
    u = [[int(i == j) for j in range(n)] for i in range(n)]
    for _ in range(steps):
        i, j = rng.sample(range(n), 2)
        c = rng.choice((-2, -1, 1, 2))
        u[i] = [a + c * b for a, b in zip(u[i], u[j])]
    rng.shuffle(u)
    return u


def _conjugate(gram, u) -> list[list[int]]:
    """U G U^T: the Gram matrix in the basis given by the rows of U."""
    n = len(gram)
    ug = [[sum(u[i][k] * gram[k][j] for k in range(n)) for j in range(n)]
          for i in range(n)]
    return [[sum(ug[i][k] * u[j][k] for k in range(n)) for j in range(n)]
            for i in range(n)]


class GenusConjugates:
    """Seeded GL_9(Z) conjugates of rank-9 family lattices, each compared
    with ``genus_equal`` against its own base (True) or a same-determinant
    partner of different length (False)."""

    def setup(self, seed: int, batch: int) -> None:
        from k3lat import FamilyDescriptor, family_lattice
        rng = random.Random(f"genus-conjugates:{seed}:{batch}")

        def lat(kind, d):
            return family_lattice(FamilyDescriptor(kind, d, 2))

        pairs = [(lat(*b), lat(*b), True)
                 for b in GENUS_BASES for _ in range(CONJUGATES_PER_BASE)]
        pairs += [(lat(*a), lat(*b), False) for a, b in GENUS_PARTNERS]
        rng.shuffle(pairs)
        self.queries = [
            (_conjugate(src.gram, _unimodular(rng, src.rank, UNIMODULAR_STEPS)),
             target, expected)
            for src, target, expected in pairs]

    def run(self):
        from k3lat import SearchBudgetExceeded, from_rows, genus_equal, genus_of
        spans, failed, decided, problems = [], 0, 0, []
        for i, (gram, target, expected) in enumerate(self.queries):
            t0 = time.monotonic()
            try:
                got = genus_equal(genus_of(from_rows(gram)), genus_of(target),
                                  budget=GENUS_BUDGET)
            except SearchBudgetExceeded:
                got = None
            except Exception as exc:  # a crash is a failed query, not a stop
                got = exc
            spans.append((t0, time.monotonic()))
            if got is None:
                continue
            if got is not expected:
                failed += 1
                problems.append(f"query {i} against {target.label}: expected "
                                f"{expected}, got {got!r}")
            else:
                decided += 1
        span = (spans[0][0], spans[-1][1])
        return span, spans, len(self.queries), failed, decided, problems


WORKLOADS = {
    "verify-all": VerifyAll,
    "evenset-b6": EvensetB6,
    "genus-conjugates": GenusConjugates,
}


def main() -> None:
    clock = HostClock()
    clock.start()
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--batch", type=int, default=0)
    parser.add_argument("--spawned-at", type=float,
                        help="the parent's time.monotonic() just before spawn "
                             "(default: when this worker started its clock)")
    parser.add_argument("--mode", choices=("setup", "run", "trace", "suites"),
                        default="run")
    args = parser.parse_args()

    import k3lat  # noqa: F401  (set-up time includes the package import)
    workload = WORKLOADS[args.workload]()
    workload.setup(args.seed, args.batch)
    spawned_at = clock.starts[0] if args.spawned_at is None else args.spawned_at
    setup = (spawned_at, time.monotonic())
    result = {}

    if args.mode != "setup":
        tracer = None
        if args.mode == "trace":
            from spans import Tracer
            tracer = Tracer(clock)
            tracer.install()
        cpu0 = time.process_time()
        if args.mode == "suites":
            outcome, suite_spans = workload.run_suites()
        else:
            outcome = workload.run()
        result["cpu_s"] = time.process_time() - cpu0
        span, spans, ops, failed, decided, problems = outcome
        clock.stop()
        if args.mode == "suites":
            result["suite_s"] = {name: clock.reference_s(*s)
                                 for name, s in suite_spans.items()}
        result.update(wall_s=clock.reference_s(*span), raw_wall_s=span[1] - span[0],
                      latencies_ms=[clock.reference_s(*s) * 1e3 for s in spans],
                      ops=ops, failed=failed, decided=decided, problems=problems)
        if tracer is not None:
            result["counters"] = tracer.counters()
            result["self_s"] = tracer.self_times()
    else:
        clock.stop()
    result.update(setup_s=clock.reference_s(*setup), raw_setup_s=setup[1] - setup[0],
                  probe_ms=clock.probe_ms(),
                  peak_rss_mib=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024)
    print(json.dumps(result))


if __name__ == "__main__":
    main()
