"""The benchmark's workloads: the CLI commands of one op, each op's seed, and
the checks that decide whether an op failed.

Importing this module puts the checkout's ``src`` directory first on
``sys.path`` and refuses a ``prefixsim`` imported from anywhere else, so the
benchmark always measures the source tree it sits in.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import sys
import traceback
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter
from typing import Callable

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
sys.path.insert(0, str(SRC))

from prefixsim import cli  # noqa: E402

if not Path(cli.__file__).resolve().is_relative_to(SRC):
    raise ImportError(f"prefixsim was imported from {cli.__file__}, not from {SRC}")

DEFAULT_SEED = 1000
REFERENCE_PATH = Path(__file__).resolve().parent / "reference.json"

#: Untimed ops run after import and before the first timed op.
WARM_UP_OPS = 2

# m = ceil(n / delta) samples per edge at each workload's config; the
# ledgers below are exact multiples of it.
M_TV = 3600        # estimate-tv n=4, eps=0.2: delta = eps^2/36
M_LEARN = 40       # simulate n=10, delta=0.25
M_INTERVAL = 90    # reduce-interval size=300 (depth 9), delta=0.1


def op_seed(seed: int, *key) -> int:
    """The CLI seed of one op: a 64-bit hash of the benchmark seed and the op's key.

    Timed op i uses the key (i,); warm-up op j uses ("warm-up", j).
    """
    h = hashlib.blake2b(digest_size=8)
    h.update(str(seed).encode("ascii"))
    for part in key:
        h.update(b"\x1f" + str(part).encode("utf-8"))
    return int.from_bytes(h.digest(), "big")


# ---------------------------------------------------------------------------
# seed-independent invariants of each command's records

def _trials(records: list[dict]) -> list[dict]:
    return [r for r in records if r.get("kind") == "trial"]


def _check_tv(records):
    limit = (2 ** 4 - 1) * M_TV
    for r in _trials(records):
        for key in ("budget_a", "budget_b"):
            if r[key] % M_TV or not 0 <= r[key] <= limit:
                return f"{key}={r[key]} is not a multiple of m={M_TV} in [0, {limit}]"
    return None


def _check_learn(records):
    want = (2 ** 10 - 1) * M_LEARN
    for r in _trials(records):
        if r["conditional_samples"] != want:
            return f"conditional_samples={r['conditional_samples']}, want (2^n - 1) m = {want}"
    return None


def _check_interval(records):
    want = (2 ** 9 - 1) * M_INTERVAL
    for r in _trials(records):
        if not r["mass_preserved"]:
            return "mass_preserved=False"
        # coupling is promised only on a power-of-two domain, as the CLI checks
        # it; at size 300 byte identity is left to the seed-1000 reference
        if r["power_of_two"] and not r["coupled"]:
            return "coupled=False on a power-of-two domain"
        if not r["budget_direct"] == r["budget_adapted"] == want:
            return (f"budget_direct={r['budget_direct']}, budget_adapted={r['budget_adapted']},"
                    f" want both (2^depth - 1) m = {want}")
    return None


def _check_hard(records):
    for r in _trials(records):
        if r["conditional_samples"] != r["draws"]:
            return f"conditional_samples={r['conditional_samples']} != draws={r['draws']}"
    return None


def _check_lemmas(records):
    violations = records[-1]["violations"]
    return f"violations={violations}" if violations else None


@dataclass(frozen=True)
class Command:
    """One CLI invocation of an op, run with --trials 1 and the op's seed."""

    argv: tuple[str, ...]
    trials: int                                    # trial records it must emit
    check: Callable[[list[dict]], str | None]      # why the records are wrong, or None
    rows: Callable[[list[dict]], int]              # oracle rows drawn (the budget ledgers)


@dataclass(frozen=True)
class Workload:
    name: str
    commands: tuple[Command, ...]


def _no_rows(records):
    return 0


WORKLOADS = {w.name: w for w in (
    Workload("tv-lazy", (
        Command(("estimate-tv", "--n", "4", "--epsilon", "0.2"), 1, _check_tv,
                lambda recs: sum(r["budget_a"] + r["budget_b"] for r in _trials(recs))),
    )),
    Workload("learn-eager", (
        Command(("simulate", "--n", "10", "--delta", "0.25"), 1, _check_learn,
                lambda recs: sum(r["conditional_samples"] for r in _trials(recs))),
    )),
    Workload("interval-coupled", (
        Command(("reduce-interval", "--size", "300", "--delta", "0.1"), 1, _check_interval,
                lambda recs: sum(r["budget_direct"] + r["budget_adapted"] for r in _trials(recs))),
    )),
    Workload("lower-bound", (
        Command(("hard-instance", "--n", "128", "--epsilon", "0.1", "--label", "both",
                 "--draws", "200"), 2, _check_hard,
                lambda recs: sum(r["conditional_samples"] for r in _trials(recs))),
        Command(("verify-lemmas", "--sweep", "40"), 10, _check_lemmas, _no_rows),
        # exit 1 here is the one-trial rate check's verdict, not a failure
        Command(("adhoc", "--delta", "0.3", "--r", "0.0769"), 2, lambda recs: None, _no_rows),
    )),
)}


# ---------------------------------------------------------------------------
# running and checking one op

@dataclass
class OpResult:
    seconds: float
    outputs: list[tuple[int, str]]   # (exit code, stdout) of each command that returned
    error: str | None                # traceback of a command that raised


def run_op(workload: Workload, seed: int) -> OpResult:
    """Run every command of one op through ``prefixsim.cli.main``, timing the whole op."""
    outputs = []
    start = perf_counter()
    for command in workload.commands:
        buf = io.StringIO()
        try:
            with contextlib.redirect_stdout(buf):
                code = cli.main([*command.argv, "--trials", "1", "--seed", str(seed)])
        except SystemExit as exc:
            code = exc.code
        except Exception:
            return OpResult(perf_counter() - start, outputs, traceback.format_exc())
        outputs.append((code, buf.getvalue()))
    return OpResult(perf_counter() - start, outputs, None)


def run_warm_up(workload: Workload, seed: int) -> None:
    for j in range(WARM_UP_OPS):
        run_op(workload, op_seed(seed, "warm-up", j))


def digest(result: OpResult) -> str:
    """Hash of the op's JSON lines with the wall-clock field removed."""
    h = hashlib.blake2b(digest_size=16)
    for _, text in result.outputs:
        for line in text.splitlines():
            record = json.loads(line)
            record.pop("elapsed_seconds", None)
            h.update(json.dumps(record, sort_keys=True).encode("utf-8") + b"\n")
    return h.hexdigest()


def check_op(workload: Workload, result: OpResult,
             expected: tuple[str, int] | None = None) -> tuple[int, str | None]:
    """Oracle rows the op drew, and why it failed (None when it passed).

    An op fails if a command raised or exited 2, if its records break a
    seed-independent invariant, or if ``expected`` (the reference digest and
    row count of this op) is given and differs.
    """
    if result.error is not None:
        return 0, "raised:\n" + result.error
    rows = 0
    for command, (code, text) in zip(workload.commands, result.outputs, strict=True):
        name = command.argv[0]
        if code not in (0, 1):
            return rows, f"{name} exited {code}"
        try:
            records = [json.loads(line) for line in text.splitlines()]
        except json.JSONDecodeError as exc:
            return rows, f"{name} printed a line that is not JSON: {exc}"
        if len(_trials(records)) != command.trials or records[-1].get("kind") != "summary":
            return rows, f"{name} printed {len(records)} lines, want {command.trials} trials and a summary"
        try:
            rows += command.rows(records)
            reason = command.check(records)
        except KeyError as exc:
            return rows, f"{name}: a record lacks the field {exc}"
        if reason is not None:
            return rows, f"{name}: {reason}"
    if expected is not None:
        want_digest, want_rows = expected
        if rows != want_rows:
            return rows, f"drew {rows} oracle rows, the reference drew {want_rows}"
        if digest(result) != want_digest:
            return rows, "trial records differ from the reference"
    return rows, None


def load_reference(seed: int) -> dict[str, list]:
    """Reference (digest, rows) per op index for each workload, at the default seed only."""
    if seed != DEFAULT_SEED:
        return {}
    data = json.loads(REFERENCE_PATH.read_text(encoding="utf-8"))
    if data["seed"] != seed:
        raise ValueError(f"{REFERENCE_PATH} was recorded at seed {data['seed']}, not {seed}")
    return data["ops"]
