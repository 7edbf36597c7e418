"""Helpers shared by the benchmark workloads and their tests.

Nothing here imports Ray or starts a process, so the tests can exercise the
input generators, the statistics and the span arithmetic in a plain
interpreter.
"""

from __future__ import annotations

import json
import math
import os
import signal
import time
from collections import Counter
from contextlib import contextmanager

import numpy as np

# Engine configuration the benchmark indexes every corpus with: the
# source-code corpus keyed by (repo, path, commit), with the two stored
# columns the facet and dedup requests read.
ID_COLS = ("repo", "path", "commit")
STORED_COLS = ("lang", "repo")

# The engine's per-searcher stats cache holds this many entries
# (IndexSearcher._stats); the query pool is sized against it.
ENGINE_STATS_CACHE = 50


# ---- inputs ---------------------------------------------------------------


def corpus_rows(seed: int, rows):
    """Rows ``rows`` (ids) of the seeded synthetic corpus."""
    from meresco_lucene_ray.corpus import corpus_batch

    return corpus_batch(np.asarray(rows), seed=seed)


def row_ids(table) -> list[str]:
    """The ``__id__`` the engine derives for each row (IndexConfig.id_from)."""
    cols = [table[c].to_pylist() for c in ID_COLS]
    return [":".join(parts) for parts in zip(*cols)]


def document_frequencies(texts: list[str]) -> Counter:
    """df per token, counted without the engine: corpus text is
    space-joined ``[a-z0-9]+`` tokens, so a split is the exact token list."""
    df: Counter = Counter()
    for t in texts:
        df.update(set(t.split()))
    return df


def df_buckets(df: Counter, n_docs: int) -> dict[str, list[str]]:
    """Split the vocabulary into document-frequency bands, each sorted for
    determinism: high (10–30% of docs), mid (1–5%), low (0.1–0.5%, at least
    3 docs).  The bands are narrow so two seeds' picks from one band cost
    alike; terms in most documents (``def``, ``the``) fall in no band."""
    bands = {"high": (0.10, 0.30), "mid": (0.01, 0.05), "low": (0.001, 0.005)}
    out: dict[str, list[str]] = {b: [] for b in bands}
    for term, d in df.items():
        share = d / n_docs
        for b, (lo, hi) in bands.items():
            if lo <= share < hi and d >= 3:
                out[b].append(term)
    for v in out.values():
        v.sort()
    return out


KINDS = ("term", "and", "or", "phrase", "prefix", "lang")
BANDS = ("high", "mid", "low")
# where each option's ranks start, so the options do not all land together
OPTION_OFFSETS = {"facets": 1, "stored": 2, "page2": 3, "dedup": 7}


def make_request(rng, kind: str, band: str, buckets, texts: list[str], langs) -> dict:
    """One request of ``kind`` whose first term comes from df ``band``."""

    def pick(b):
        terms = buckets[b] or buckets["high"]
        return terms[int(rng.integers(len(terms)))]

    if not buckets[band]:  # tiny corpora have no low band
        band = "high"
    first = pick(band)
    if kind == "term":
        return {"kind": kind, "terms": [first]}
    if kind == "and":
        return {"kind": kind, "terms": sorted({first, pick("mid")})}
    if kind == "or":
        return {"kind": kind, "terms": sorted({first, pick("mid"), pick("low")})}
    if kind == "phrase":
        # a band term and the token after one of its occurrences, itself
        # in some band: the phrase always matches
        in_band = set(buckets[band])
        banded = in_band.union(*buckets.values())
        while True:
            toks = texts[int(rng.integers(len(texts)))].split()
            at = [i for i, t in enumerate(toks[:-1]) if t in in_band and toks[i + 1] in banded]
            if at:
                p = at[int(rng.integers(len(at)))]
                return {"kind": kind, "terms": toks[p : p + 2]}
    if kind == "prefix":
        cands = [t for t in buckets["low" if band == "low" else "mid"] if len(t) >= 4]
        t = cands[int(rng.integers(len(cands)))]
        return {"kind": kind, "terms": [t[:-1]]}
    if kind == "lang":
        return {"kind": kind, "terms": [first], "lang": langs[int(rng.integers(len(langs)))]}
    raise ValueError(kind)


def request_pool(
    seed: int,
    texts: list[str],
    df: Counter,
    size: int,
    option_shares: dict[str, float],
    n_checks: int = 0,
) -> list[dict]:
    """A seeded pool of requests, in popularity-rank order.

    The shape of the pool is the same for every seed: rank ``r`` has kind
    ``KINDS[r % 6]``, draws its first term from df band
    ``BANDS[(r // 6) % 3]``, and carries each option on a fixed ``share`` of
    the ranks — ``facets`` (facet on lang), ``dedup`` (dedup on repo),
    ``stored`` (fetch lang and repo) and ``page2`` (hits 10..20).  The seed
    picks the terms, phrases and languages.  Two seeds then put the same
    kinds of work at the popular ranks, which keeps run-to-run spread low.

    The first ``n_checks`` requests of the check kinds (term, and, or,
    phrase) carry no options, so their top-10 can be compared with the
    brute-force oracle.
    """
    from meresco_lucene_ray.corpus import LANGS

    rng = np.random.default_rng([seed, 0xB00C])
    buckets = df_buckets(df, len(texts))
    pool = []
    for r in range(size):
        kind, band = KINDS[r % len(KINDS)], BANDS[(r // len(KINDS)) % len(BANDS)]
        req = make_request(rng, kind, band, buckets, texts, LANGS)
        req["opts"] = sorted(
            o
            for o, share in option_shares.items()
            if int((r + 1 + OPTION_OFFSETS[o]) * share) > int((r + OPTION_OFFSETS[o]) * share)
        )
        pool.append(req)
    checks = 0
    for req in pool:
        if checks >= n_checks:
            break
        if req["kind"] in ("term", "and", "or", "phrase"):
            req["opts"] = []
            req["check"] = True
            checks += 1
    return pool


def zipf_sequence(seed: int, pool_size: int, length: int, s: float = 0.8) -> np.ndarray:
    """Pool ranks drawn with a Zipf(s) skew: rank r has weight (r+1)^-s."""
    rng = np.random.default_rng([seed, 0x51F])
    p = np.arange(1, pool_size + 1, dtype=np.float64) ** -s
    return rng.choice(pool_size, size=length, p=p / p.sum())


def repeat_share(seq) -> float:
    """Share of requests whose pool entry already occurred earlier."""
    seen: set = set()
    repeats = 0
    for x in seq:
        x = int(x)
        repeats += x in seen
        seen.add(x)
    return repeats / len(seq) if len(seq) else 0.0


# ---- statistics -----------------------------------------------------------


def median(values) -> float:
    v = sorted(values)
    n = len(v)
    if not n:
        raise ValueError("median of no values")
    return float(v[n // 2]) if n % 2 else (v[n // 2 - 1] + v[n // 2]) / 2.0


def tail_percentile(values, min_beyond: int = 10) -> tuple[float, float] | None:
    """Highest percentile that still has at least ``min_beyond`` samples
    above it, as ``(percentile, value)``; ``None`` when not even the median
    has that many.

    Only percentiles from the ladder 50, 90, 99, 99.9, 99.99 are reported.
    Percentile ``p`` is the sorted value at rank ``ceil(p/100·n)`` (1-based),
    and the samples beyond it are the ``n - rank`` larger ranks.
    """
    v = sorted(values)
    n = len(v)
    best = None
    for p in (50.0, 90.0, 99.0, 99.9, 99.99):
        rank = max(1, math.ceil(round(p * n / 100.0, 9)))  # round: 0.999·1e4 ≠ 9990.0
        if n - rank >= min_beyond:
            best = (p, float(v[rank - 1]))
    return best


def latency_summary(ms: list[float]) -> dict:
    """Sample count, median, tail percentile and maximum, for run records."""
    out: dict = {"n": len(ms)}
    if ms:
        out["p50_ms"] = round(median(ms), 4)
        tail = tail_percentile(ms)
        if tail is not None:
            out["tail_pct"], out["tail_ms"] = tail[0], round(tail[1], 4)
        out["max_ms"] = round(max(ms), 4)
    return out


# ---- tracing --------------------------------------------------------------


class Tracer:
    """In-memory spans: ``(id, name, start, end, parent, request)``.

    Spans are recorded around calls the benchmark makes into each layer; a
    disabled tracer records nothing and costs one attribute test per span.
    """

    def __init__(self, enabled: bool):
        self.enabled = enabled
        self.spans: list[tuple] = []
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str, request: int | None = None):
        if not self.enabled:
            yield None
            return
        sid = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        self.spans.append([sid, name, time.perf_counter(), None, parent, request])
        self._stack.append(sid)
        try:
            yield sid
        finally:
            self._stack.pop()
            self.spans[sid][3] = time.perf_counter()

    def durations_ms(self, name: str) -> list[float]:
        return [(s[3] - s[2]) * 1e3 for s in self.spans if s[1] == name and s[3] is not None]

    def dump(self, path: str) -> None:
        keys = ("id", "name", "start", "end", "parent", "request")
        with open(path, "w") as f:
            for s in self.spans:
                f.write(json.dumps(dict(zip(keys, s))) + "\n")


def self_time(start: float, end: float, children: list[tuple[float, float]]) -> float:
    """A span's duration minus the part of ``[start, end]`` that its child
    spans cover; overlapping children count once, and a child's time outside
    the parent's interval counts not at all."""
    covered = 0.0
    cur_s = cur_e = None
    for cs, ce in sorted((max(cs, start), min(ce, end)) for cs, ce in children):
        if ce <= cs:
            continue
        if cur_e is None or cs > cur_e:
            if cur_e is not None:
                covered += cur_e - cur_s
            cur_s, cur_e = cs, ce
        else:
            cur_e = max(cur_e, ce)
    if cur_e is not None:
        covered += cur_e - cur_s
    return (end - start) - covered


# ---- per-operation deadline -----------------------------------------------


class OpTimeout(Exception):
    """An operation ran past its deadline."""


def _on_alarm(signum, frame):
    raise OpTimeout("operation exceeded its deadline")


@contextmanager
def deadline(seconds: float):
    """Raise :class:`OpTimeout` in the main thread if the body runs longer
    than ``seconds`` (an interval timer, so the cost is two system calls)."""
    old = signal.signal(signal.SIGALRM, _on_alarm)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, old)


# ---- processes and files --------------------------------------------------


def _proc_ids():
    for name in os.listdir("/proc"):
        if name.isdigit():
            yield int(name)


def processes_with_env(key: str, value: str) -> list[int]:
    """Pids whose environment has ``key=value`` (readable ones only)."""
    needle = f"{key}={value}".encode()
    out = []
    for pid in _proc_ids():
        if pid == os.getpid():
            continue
        try:
            with open(f"/proc/{pid}/environ", "rb") as f:
                env = f.read().split(b"\0")
        except OSError:
            continue
        if needle in env:
            out.append(pid)
    return out


def proc_cmdline(pid: int) -> str:
    try:
        with open(f"/proc/{pid}/cmdline", "rb") as f:
            return f.read().replace(b"\0", b" ").decode(errors="replace").strip()
    except OSError:
        return ""


def pin_to_cpu(pid: int, cpu: int) -> None:
    """Pin every thread of process ``pid`` to ``cpu``; threads they start
    later inherit it.  A thread or process that has exited is skipped."""
    try:
        tids = os.listdir(f"/proc/{pid}/task")
    except OSError:
        return
    for tid in tids:
        try:
            os.sched_setaffinity(int(tid), {cpu})
        except OSError:
            pass


def proc_status_kb(pid: int, field: str) -> int:
    """A ``kB`` field of /proc/<pid>/status (VmRSS, VmHWM), 0 if gone."""
    try:
        with open(f"/proc/{pid}/status") as f:
            for line in f:
                if line.startswith(field + ":"):
                    return int(line.split()[1])
    except OSError:
        pass
    return 0


def file_sizes(root: str) -> dict[str, tuple[int, int]]:
    """path → (size, mtime_ns) for every file under ``root``."""
    out = {}
    for d, _, files in os.walk(root):
        for f in files:
            p = os.path.join(d, f)
            try:
                st = os.stat(p)
            except FileNotFoundError:
                continue
            out[p] = (st.st_size, st.st_mtime_ns)
    return out


def dir_bytes(root: str, suffix: str = "") -> int:
    return sum(s for p, (s, _) in file_sizes(root).items() if p.endswith(suffix))


def bytes_written(before: dict, after: dict) -> int:
    """Bytes of files that are new or rewritten between two snapshots."""
    return sum(s for p, (s, m) in after.items() if before.get(p) != (s, m))
