"""The switchboard: the one reader of ``REPRO_*`` environment variables.

Every variable is declared here once, with its default value and a
parser, and every module reads it through :func:`get`; tests and
benches override it through :func:`forced`.  No other module under
``src/repro`` touches ``os.environ`` for a ``REPRO_`` name
(``tests/test_envvars.py`` scans for it); the CLI only *exports*
variables so forked pool workers inherit its flags.

One rule for bad values: a value that does not parse, or is out of
its entry's range, raises :class:`ValueError` naming the variable and
the value at its first read.  An empty value means unset.  Flags
accept ``1/0/true/false/yes/no/on/off``.

The docs embed generated tables between ``<!-- envvars:begin ... -->``
/ ``<!-- envvars:end -->`` markers, ``tests/test_envvars.py`` asserts
the embedded tables match this registry byte-for-byte, and
``repro envvars`` prints the registry (``--format json`` for
machines).  After changing an entry, re-run
``python -m repro.envvars --update README.md docs/*.md``.
"""

from __future__ import annotations

import os
import re
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple

__all__ = ["EnvVar", "REGISTRY", "BY_NAME", "get", "forced", "by_group",
           "markdown_table", "update_doc", "doc_blocks"]

#: The repository root: the default measurement cache lives under it,
#: whatever the working directory.
_REPO_ROOT = os.path.abspath(
    os.path.join(os.path.dirname(__file__), "..", ".."))


# ---------------------------------------------------------------------------
# Parsers: raw string -> value, raising ValueError on a bad value
# ---------------------------------------------------------------------------

_FLAGS = {"1": True, "true": True, "yes": True, "on": True,
          "0": False, "false": False, "no": False, "off": False}


def flag(raw: str) -> bool:
    try:
        return _FLAGS[raw.strip().lower()]
    except KeyError:
        raise ValueError("expected one of "
                         "1/0/true/false/yes/no/on/off") from None


def int_at_least(low: int) -> Callable[[str], int]:
    def parse(raw: str) -> int:
        value = int(raw)
        if value < low:
            raise ValueError(f"must be >= {low}")
        return value
    return parse


def float_at_least(low: float) -> Callable[[str], float]:
    def parse(raw: str) -> float:
        value = float(raw)
        if not value >= low:  # also rejects nan
            raise ValueError(f"must be >= {low}")
        return value
    return parse


def fraction(raw: str) -> float:
    value = float(raw)
    if not 0.0 < value <= 1.0:
        raise ValueError("must be in (0, 1]")
    return value


def text(raw: str) -> str:
    return raw.strip()


def chaos_spec(raw: str):
    """A :class:`~repro.resilience.chaos.ChaosPolicy`, parsed once per
    distinct value (the memo in :func:`get` keeps ``chaos.active()``
    a dict lookup on the hot path)."""
    from repro.resilience.chaos import ChaosPolicy
    return ChaosPolicy.parse(raw)


# ---------------------------------------------------------------------------
# The registry
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class EnvVar:
    """One environment variable: its default, parser and docs."""

    name: str
    default: Any
    parse: Callable[[str], Any]
    description: str
    #: Doc-table grouping: pipeline | performance | robustness |
    #: observability | serve.
    group: str
    #: Appended to the rendered default, e.g. "CLI: `os.cpu_count()`".
    note: str = ""

    def shown_default(self) -> str:
        if self.default is None or self.default is False:
            shown = "unset"
        elif self.default is True:
            shown = "`1`"
        else:
            value = str(self.default)
            if value.startswith(_REPO_ROOT + os.sep):
                value = "<repo>" + value[len(_REPO_ROOT):]
            shown = f"`{value}`"
        return f"{shown} ({self.note})" if self.note else shown


REGISTRY: List[EnvVar] = [
    # -- pipeline shape ---------------------------------------------------
    EnvVar("REPRO_SCALE", 0.004, float_at_least(0.0),
           "corpus size relative to the paper's 358,561 blocks",
           "pipeline"),
    EnvVar("REPRO_SEED", 0, int_at_least(0),
           "base seed for corpus synthesis and simulated noise",
           "pipeline"),
    EnvVar("REPRO_JOBS", None, int_at_least(1),
           "worker-pool size for `--jobs`-aware commands and benches",
           "pipeline", note="pipeline `1`, CLI `os.cpu_count()`"),
    EnvVar("REPRO_SHARD_SIZE", 32, int_at_least(1),
           "blocks per shard, the unit of profiling work and of a "
           "measurement-store hit (a shard hits only when every block "
           "has an entry)", "pipeline"),
    EnvVar("REPRO_CACHE", os.path.join(_REPO_ROOT, ".cache"), text,
           "cache root: one per-block measurement store per (uarch, "
           "seed), `measured_v4_<uarch>_<seed>/`, shared by the "
           "pipeline and the serve daemon (whose state defaults to "
           "`serve/`)", "pipeline"),
    EnvVar("REPRO_REPORT_DIR", "reports", text,
           "where benches and telemetry write reports", "pipeline"),
    EnvVar("REPRO_STREAM_EPOCH", 512, int_at_least(0),
           "blocks between retained-state resets of each profiling "
           "process (dedup memo + plan cache; same bytes, bounds RSS; "
           "`0` disables resets)", "pipeline"),
    EnvVar("REPRO_SAMPLE", None, fraction,
           "default `--sample` fraction: profile a stratified sample "
           "and project full-corpus error tables with bootstrap CIs",
           "pipeline"),
    # -- performance toggles ----------------------------------------------
    EnvVar("REPRO_NO_FASTPATH", False, flag,
           "`1` disables the simulation-core fast path "
           "(same bytes, slower)", "performance"),
    EnvVar("REPRO_NO_BLOCKPLAN", False, flag,
           "`1` disables compiled block plans (same bytes, slower)",
           "performance"),
    # -- robustness knobs -------------------------------------------------
    EnvVar("REPRO_CHAOS", None, chaos_spec,
           "arm deterministic fault injection "
           "(`<seed>[:point=rate,...]`, [docs/robustness.md]"
           "(docs/robustness.md))", "robustness"),
    EnvVar("REPRO_STRICT", False, flag,
           "`1` makes quarantine decisions raise instead of degrade",
           "robustness", note="salvage"),
    EnvVar("REPRO_STEP_BUDGET", 8_000_000, int_at_least(1),
           "per-block dynamic-instruction watchdog budget",
           "robustness"),
    EnvVar("REPRO_SHARD_TIMEOUT", 600, float_at_least(0.1),
           "seconds before a pooled shard is declared hung and rescued",
           "robustness"),
    # -- observability ----------------------------------------------------
    EnvVar("REPRO_WINDOW", 64, int_at_least(1),
           "blocks per live-telemetry aggregation window",
           "observability"),
    EnvVar("REPRO_TELEMETRY", True, flag,
           "`0` lets the bench suites skip telemetry collection "
           "when chasing peak numbers", "observability", note="benches"),
    # -- serve daemon -----------------------------------------------------
    EnvVar("REPRO_SERVE_WINDOW", 32, int_at_least(1),
           "finished requests per serve-metrics window "
           "(p50/p95/p99 latency, jitter, deadline-miss rate)",
           "serve"),
    EnvVar("REPRO_SERVE_STATE", None, text,
           "daemon state directory: the CRC-self-checked request "
           "journal only (measurements go to the store under "
           "`$REPRO_CACHE`)", "serve",
           note="`$REPRO_CACHE/serve`"),
]

BY_NAME: Dict[str, EnvVar] = {v.name: v for v in REGISTRY}

#: Order groups render in when a table spans several.
GROUP_ORDER = ("pipeline", "performance", "robustness",
               "observability", "serve")


# ---------------------------------------------------------------------------
# Reading and overriding
# ---------------------------------------------------------------------------

#: Scoped overrides set by :func:`forced`.  A module global, so pool
#: workers forked inside a ``forced`` scope inherit it.
_forced: Dict[str, Any] = {}

#: name -> (raw environment string or None, parsed value).
_memo: Dict[str, Tuple[Optional[str], Any]] = {}


def get(name: str) -> Any:
    """The forced value, else the parsed environment value, else the
    registry default.

    Hot-path cheap (the fast-path and block-plan switches are read
    dozens of times per block): one dict check, one environment read
    and one memo lookup; a value is parsed once per distinct string.
    """
    if _forced and name in _forced:
        return _forced[name]
    raw = os.environ.get(name)
    hit = _memo.get(name)
    if hit is not None and hit[0] == raw:
        return hit[1]
    var = BY_NAME[name]
    if raw is None or not raw.strip():
        value = var.default
    else:
        try:
            value = var.parse(raw)
        except ValueError as exc:
            raise ValueError(f"{name}={raw!r}: {exc}") from None
    _memo[name] = (raw, value)
    return value


@contextmanager
def forced(name: str, value: Any) -> Iterator[None]:
    """Within the scope, :func:`get` returns ``value`` for ``name``
    whatever the environment says (tests, benches)."""
    BY_NAME[name]  # unknown names fail here, not at the first read
    missing = object()
    saved = _forced.get(name, missing)
    _forced[name] = value
    try:
        yield
    finally:
        if saved is missing:
            del _forced[name]
        else:
            _forced[name] = saved


# ---------------------------------------------------------------------------
# Doc tables
# ---------------------------------------------------------------------------

def by_group(group: Optional[str] = None) -> List[EnvVar]:
    """Registry entries for one group (or all, in group order)."""
    if group is not None:
        return [v for v in REGISTRY if v.group == group]
    ordered = []
    for g in GROUP_ORDER:
        ordered.extend(v for v in REGISTRY if v.group == g)
    return ordered


def _table(rows: List[EnvVar]) -> str:
    lines = ["| variable | default | meaning |",
             "| --- | --- | --- |"]
    lines += [f"| `{v.name}` | {v.shown_default()} | {v.description} |"
              for v in rows]
    return "\n".join(lines)


def markdown_table(group: Optional[str] = None) -> str:
    """The generated markdown table for ``group`` (or everything)."""
    return _table(by_group(group))


_BLOCK = re.compile(
    r"<!-- envvars:begin(?: group=(?P<group>[a-z,]+))? -->"
    r"(?P<body>.*?)"
    r"<!-- envvars:end -->", re.S)


def _render_groups(spec: Optional[str]) -> str:
    if not spec:
        return markdown_table()
    return _table([v for g in spec.split(",") for v in by_group(g)])


def doc_blocks(text: str) -> List[Dict]:
    """Every envvars block in a doc: its group spec, body, expected."""
    blocks = []
    for match in _BLOCK.finditer(text):
        blocks.append({
            "group": match.group("group"),
            "body": match.group("body").strip("\n"),
            "expected": _render_groups(match.group("group")),
        })
    return blocks


def update_doc(text: str) -> str:
    """Rewrite every marker block in ``text`` with generated tables."""
    def _sub(match: "re.Match") -> str:
        spec = match.group("group")
        begin = "<!-- envvars:begin" + \
            (f" group={spec}" if spec else "") + " -->"
        return f"{begin}\n{_render_groups(spec)}\n<!-- envvars:end -->"
    return _BLOCK.sub(_sub, text)


def main(argv: Optional[List[str]] = None) -> int:
    """``python -m repro.envvars [--update FILE...]``."""
    import argparse
    parser = argparse.ArgumentParser(
        description="print or re-embed the REPRO_* env-var registry")
    parser.add_argument("--group", choices=GROUP_ORDER, default=None)
    parser.add_argument("--format", choices=("table", "json"),
                        default="table")
    parser.add_argument("--update", nargs="+", metavar="FILE",
                        help="rewrite marker blocks in these docs")
    args = parser.parse_args(argv)
    if args.update:
        for path in args.update:
            with open(path) as fh:
                text = fh.read()
            updated = update_doc(text)
            if updated != text:
                with open(path, "w") as fh:
                    fh.write(updated)
                print(f"updated {path}")
        return 0
    if args.format == "json":
        import json
        print(json.dumps([{"name": v.name, "default": v.shown_default(),
                           "description": v.description,
                           "group": v.group}
                          for v in by_group(args.group)], indent=2))
    else:
        print(markdown_table(args.group))
    return 0


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
