"""The benchmark's two workloads, run inside one fresh process each.

Every workload drives the engine through its public library API
(``build_index``, ``IndexSearcher``, ``add_documents`` /
``delete_documents``, ``refresh``) as one closed-loop client, checks the
outputs, and returns the end-to-end metrics.  With tracing on it also records
spans around calls into each layer's public functions (see
``LayerReplay``) and returns the per-layer metrics instead.

Sizes, the reasons for each workload and the per-layer → end-to-end map are
in README.md next to this file.
"""

from __future__ import annotations

import os
import shutil
import time

import numpy as np

import benchlib as bl

# Ray gets two logical CPUs so a write's Ray Data tasks (1 CPU each) can
# schedule beside a live searcher actor (0.5 CPU); with one logical CPU,
# add_documents waits forever for the actor's share.
RAY_CPUS = 2
# The request path (this driver and the searcher actors) runs on one core,
# the last one the run may use; Ray's daemons and task workers run on the
# others.  A request hands off between the two processes several times,
# and on a shared VM every hand-off that wakes an idle virtual CPU waits
# on the host, so unpinned latency swings with the host's load.
REQUEST_CPU = max(os.sched_getaffinity(0))
SEARCHER_CPUS = 0.5
SEARCHER_ACTORS = 1
SETUP_REPS = 3
OBJECT_STORE_BYTES = 256 * 1024 * 1024

# Per-operation deadlines (seconds); a deadline hit fails the run.
DEADLINE_QUERY_S = 30
DEADLINE_SETUP_S = 90
DEADLINE_BUILD_S = 120
DEADLINE_COMMIT_S = 90

SIZES = {
    "query": {"docs": 8_000, "units": 4, "pool": 200, "checks": 5},
    "ingest_nrt": {"docs": 2_000, "units": 4, "pool": 12, "commit_docs": 10, "reads": 6},
}
# Shares of the query pool that carry each request option.
QUERY_OPTIONS = {"facets": 0.25, "dedup": 0.10, "stored": 0.25, "page2": 0.15}
GOLDEN_SCORE = 0.13076457381248474

ACTOR_TITLE = "ray::_SegmentActorImpl"


def sizes_for(workload: str, tiny: bool) -> dict:
    s = dict(SIZES[workload])
    if tiny:
        s["docs"] //= 10
        s["units"] = 2
        if "pool" in s and workload == "query":
            s["pool"] = 60
    return s


def index_config():
    from meresco_lucene_ray.index import IndexConfig

    return IndexConfig(
        text_col="content",
        id_from=bl.ID_COLS,
        stored_cols=bl.STORED_COLS,
        store_positions=True,
        hash_content=True,
    )


def to_query(req: dict):
    from meresco_lucene_ray.query import BoolQ, DocValEqQ, PhraseQ, PrefixQ, TermQ

    kind, terms = req["kind"], req["terms"]
    if kind == "term":
        return TermQ(terms[0])
    if kind == "and":
        return BoolQ(must=tuple(TermQ(t) for t in terms))
    if kind == "or":
        return BoolQ(should=tuple(TermQ(t) for t in terms))
    if kind == "phrase":
        return PhraseQ(tuple(terms))
    if kind == "prefix":
        return PrefixQ(terms[0])
    if kind == "lang":
        return BoolQ(must=(TermQ(terms[0]),), filter=(DocValEqQ("lang", req["lang"]),))
    raise ValueError(kind)


def execute_kwargs(req: dict) -> dict:
    opts = req.get("opts", ())
    kw = {"start": 10, "stop": 20} if "page2" in opts else {"start": 0, "stop": 10}
    if "facets" in opts:
        kw["facets"] = ["lang"]
    if "dedup" in opts:
        kw["dedup_field"] = "repo"
    if "stored" in opts:
        kw["stored_fields"] = list(bl.STORED_COLS)
    return kw


def hit_pairs(res) -> list[tuple[str, float]]:
    return list(zip(res.hits["__id__"].to_pylist(), res.hits["score"].to_pylist()))


def oracle_ranking(oracle, req: dict) -> list[tuple[str, float]]:
    """Every matching doc, best first, scored by the brute-force oracle."""
    terms = req["terms"]
    if req["kind"] in ("term", "or"):
        return oracle.top_k_or(terms, k=oracle.N)
    if req["kind"] == "and":
        return oracle.top_k_and(terms, k=oracle.N)
    if req["kind"] == "phrase":
        return oracle.top_k_phrase(tuple(terms), k=oracle.N)
    raise ValueError(req["kind"])


def same_top_k(engine: list[tuple[str, float]], ranking: list[tuple[str, float]], k: int) -> bool:
    """The engine's top-k equals the oracle's up to ties: the same scores
    position by position, and each returned id scored as the oracle scores
    it (so equal-score docs may swap across the k-th place)."""
    want = ranking[:k]
    if len(engine) != len(want):
        return False
    got = sorted(engine, key=lambda x: (-x[1], x[0]))
    by_id = dict(ranking)
    for (gid, gs), (_, ws) in zip(got, want):
        if abs(gs - ws) > 1e-9 or gid not in by_id or abs(by_id[gid] - gs) > 1e-9:
            return False
    return len({i for i, _ in got}) == len(got)


class Run:
    """State of one workload run: counters, latencies, spans, checks."""

    def __init__(self, workload: str, seed: int, seconds: float, trace: bool, tiny: bool, work: str):
        self.workload = workload
        self.seed = seed
        self.seconds = seconds
        self.trace = trace
        self.sizes = sizes_for(workload, tiny)
        self.work = work
        self.tracer = bl.Tracer(trace)
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []
        self.counters: dict[str, float] = {}
        self.record: dict = {
            "workload": workload,
            "seed": seed,
            "seconds": seconds,
            "trace": int(trace),
            "ray_logical_cpus": RAY_CPUS,
            "request_path_cpu": REQUEST_CPU,
            "searcher_num_cpus": SEARCHER_CPUS,
            "searcher_actors": SEARCHER_ACTORS,
            "loop": "closed, 1 client",
            "sizes": dict(self.sizes),
        }

    def fail(self, what: str) -> None:
        self.failed += 1
        if len(self.errors) < 20:
            self.errors.append(what)

    def call(self, what: str, seconds: float, fn, *args, **kw):
        """One operation under a deadline.  An exception counts as a failed
        operation and returns None; a deadline hit is re-raised, because the
        engine may be left mid-call."""
        self.attempted += 1
        try:
            with bl.deadline(seconds):
                return fn(*args, **kw)
        except bl.OpTimeout:
            self.fail(f"{what}: deadline {seconds}s")
            raise
        except Exception as e:  # the benchmark keeps going and reports it
            self.fail(f"{what}: {type(e).__name__}: {e}")
            return None

    def check(self, what: str, ok: bool) -> None:
        """A correctness check of an output; a mismatch is a failed op."""
        self.attempted += 1
        if not ok:
            self.fail(f"wrong result: {what}")

    def span(self, name: str, request: int | None = None):
        return self.tracer.span(name, request)


# ---- shared steps ---------------------------------------------------------


def write_corpus(table, out_dir: str, units: int) -> list[str]:
    """One parquet file (one row group) per build unit."""
    import pyarrow.parquet as pq

    os.makedirs(out_dir, exist_ok=True)
    n = len(table)
    per = -(-n // units)
    paths = []
    for u in range(units):
        part = table.slice(u * per, per)
        p = os.path.join(out_dir, f"part-{u:03d}.parquet")
        pq.write_table(part, p, row_group_size=max(1, len(part)))
        paths.append(p)
    return paths


def build(run: Run, corpus_dir: str, index_dir: str):
    from meresco_lucene_ray.index import build_index

    n, units = run.sizes["docs"], run.sizes["units"]
    shutil.rmtree(index_dir, ignore_errors=True)
    with run.span("index.build.wall"):
        return run.call(
            "build_index",
            DEADLINE_BUILD_S,
            build_index,
            corpus_dir,
            index_dir,
            index_config(),
            target_docs_per_segment=-(-n // units),
        )


def index_bytes(index_dir: str) -> dict[str, int]:
    return {
        "postings": bl.dir_bytes(index_dir, "postings.parquet"),
        "docs": bl.dir_bytes(index_dir, "docs.parquet"),
        "termstats": bl.dir_bytes(index_dir, "termstats.parquet"),
        "total": bl.dir_bytes(index_dir),
    }


def tombstone_count(index_dir: str) -> int:
    import pyarrow.parquet as pq

    p = os.path.join(index_dir, "tombstones.parquet")
    return pq.read_metadata(p).num_rows if os.path.exists(p) else 0


def golden_check(run: Run) -> None:
    """The reference's golden single-doc BM25 score (N=1, tf=1, dl=avgdl,
    k1=1.2, b=0.75), built by ``build_index`` and scored by the segment
    searcher in this process."""
    import pyarrow as pa
    import pyarrow.parquet as pq
    from meresco_lucene_ray.index import IndexConfig, build_index
    from meresco_lucene_ray.query import BM25, TermQ
    from meresco_lucene_ray.query.segment import SegmentSearcher

    d = os.path.join(run.work, "golden")
    os.makedirs(d, exist_ok=True)
    src = os.path.join(d, "doc.parquet")
    pq.write_table(pa.table({"__id__": ["d1"], "content": ["hello"]}), src)
    cfg = IndexConfig(text_col="content", id_col="__id__", num_shards=1, k1=1.2, b=0.75)
    m = run.call("golden build_index", DEADLINE_BUILD_S, build_index, src, os.path.join(d, "idx"), cfg)
    if m is None:
        return
    seg = SegmentSearcher(os.path.join(d, "idx", m.segments[0].path))
    stats = {"N": m.num_docs, "avgdl": m.avgdl, "df": {"hello": 1}, "f32": True}
    hits = seg.top_k(TermQ("hello"), 1, BM25(k1=1.2, b=0.75), stats)
    score = hits["score"][0].as_py() if len(hits) else None
    run.check(f"golden score {score}", score is not None and abs(score - GOLDEN_SCORE) <= 1e-12)


def ray_processes(title: str) -> list[int]:
    """This run's processes whose title starts with ``title``."""
    run_id = os.environ.get("PERFBENCH_RUN", "")
    return [p for p in bl.processes_with_env("PERFBENCH_RUN", run_id) if bl.proc_cmdline(p).startswith(title)]


def searcher_processes() -> list[int]:
    return ray_processes(ACTOR_TITLE)


def wait_searchers(at_most: int, timeout_s: float = 10.0) -> None:
    """Wait until at most ``at_most`` searcher actor processes remain, so a
    dying actor does not share the core with the next measurement."""
    end = time.monotonic() + timeout_s
    while len(searcher_processes()) > at_most and time.monotonic() < end:
        time.sleep(0.05)


def searcher_rss_mb() -> float:
    return sum(bl.proc_status_kb(p, "VmRSS") for p in searcher_processes()) / 1024.0


def pin_searchers() -> None:
    """Put the searcher actors on the request-path core (see REQUEST_CPU)."""
    for p in searcher_processes():
        bl.pin_to_cpu(p, REQUEST_CPU)


def open_searcher(run: Run, index_dir: str, warm_q):
    """Searcher open plus the first query on every actor: the start cost a
    user pays before the first answer."""
    from meresco_lucene_ray.query import IndexSearcher

    def go():
        with run.span("query.engine.open"):
            s = IndexSearcher(index_dir, num_actors=SEARCHER_ACTORS, num_cpus=SEARCHER_CPUS)
            s.execute(warm_q, stop=10)
        return s

    t0 = time.perf_counter()
    s = run.call("open searcher", DEADLINE_SETUP_S, go)
    dt = time.perf_counter() - t0
    pin_searchers()
    return s, dt


def reopen_searcher(run: Run, index_dir: str, old):
    """Close ``old`` (if any) and wait for its actors to exit, then open a
    fresh searcher; returns it with its open time in seconds."""
    from meresco_lucene_ray.query import TermQ

    if old is not None:
        old.close()
        wait_searchers(0)
    s, dt = open_searcher(run, index_dir, TermQ("def"))
    if s is None:
        raise RuntimeError("searcher did not open")
    return s, dt


def setup_searcher(run: Run, index_dir: str):
    """``SETUP_REPS`` searcher opens; keeps the last one serving."""
    times, s = [], None
    for rep in range(SETUP_REPS):
        s, dt = reopen_searcher(run, index_dir, s)
        times.append(dt)
    run.record["setup_s_reps"] = times
    return s, bl.median(times)


def warm_up(run: Run, searcher, pool: list[dict], replay) -> None:
    """One untimed, untraced pass over the request pool, so the timed loop
    starts with the searcher's caches (and the replay's) as full as the
    request mix keeps them."""
    run.tracer.enabled = False
    try:
        for req in pool:
            q = to_query(req)
            run.call("warm-up request", DEADLINE_QUERY_S, searcher.execute, q, **execute_kwargs(req))
            if replay is not None:
                replay.replay(req, q, None)
    finally:
        run.tracer.enabled = run.trace


class LayerReplay:
    """An in-process copy of the work the engine does for one request, in
    the engine's call shape, timed from outside the package:

    - the driver's term-stats lookup, behind a 50-entry cache keyed by the
      query's terms (as ``IndexSearcher._stats``);
    - postings decode, through each segment searcher's postings cache, so a
      term is decoded once per searcher (as in the actor);
    - per segment, the collectors ``_SegmentActorImpl`` runs: a plain
      ``top_k`` or ``dedup_groups``, or, when facets are asked, one ``eval``
      whose live-filtered mask feeds the top-k (or dedup) collector and
      ``facet_counts`` (the fused ``search`` / ``dedup_and_facets``).

    A traced run replays every request, so the replay's caches are as warm
    as the engine's; spans are recorded for every other request.  Loading a
    replay times ``SegmentSearcher`` per segment (what an actor pays on
    every open and reopen)."""

    def __init__(self, run: Run, index_dir: str):
        from meresco_lucene_ray.index import IndexManifest
        from meresco_lucene_ray.index.tombstones import TombstoneSet, tombstone_path
        from meresco_lucene_ray.query import BM25
        from meresco_lucene_ray.query.engine import TermStatsReader
        from meresco_lucene_ray.query.segment import SegmentSearcher

        self.run = run
        self.manifest = IndexManifest.load(index_dir)
        self.sim = BM25(k1=self.manifest.config.get("k1", 0.9), b=self.manifest.config.get("b", 0.4))
        self.stats_reader = TermStatsReader(os.path.join(index_dir, "termstats.parquet"))
        self.stats_cache: dict[tuple[str, ...], dict] = {}
        tpath = tombstone_path(index_dir)
        tomb = TombstoneSet(tpath) if tpath else None
        self.segments = []
        load_id = run.counters["loads"] = run.counters.get("loads", 0) + 1
        for s in self.manifest.segments:
            with run.span("query.segment.load", load_id):
                self.segments.append(SegmentSearcher(os.path.join(index_dir, s.path), tomb))

    def replay(self, req: dict, q, rid: int) -> None:
        from meresco_lucene_ray.query.ast import query_terms

        run, sim = self.run, self.sim
        terms = tuple(sorted(query_terms(q)))
        with run.span("query.termstats.lookup", rid):
            df = self.stats_cache.get(terms)
            if df is None:
                df = self.stats_reader.df_of(terms) if terms else {}
                if len(self.stats_cache) >= bl.ENGINE_STATS_CACHE:
                    self.stats_cache.pop(next(iter(self.stats_cache)))
                self.stats_cache[terms] = df
        with run.span("index.codec.decode", rid):
            for seg in self.segments:
                for t in terms:
                    seg.postings_local(t)
        stats = {"N": self.manifest.num_docs, "avgdl": self.manifest.avgdl, "df": df, "f32": True}
        kw = execute_kwargs(req)
        k, cols = max(kw["stop"], 1), list(kw.get("stored_fields", ()))
        dedup = "dedup_field" in kw
        collector = "query.segment.dedup" if dedup else "query.segment.top_k"
        for seg in self.segments:
            if "facets" not in kw:
                with run.span(collector, rid):
                    if dedup:
                        seg.dedup_groups(q, sim, stats, "repo", None, ())
                    else:
                        seg.top_k(q, k, sim, stats, None, cols)
                continue
            # the shared eval is timed with the top-k (or dedup) collector
            with run.span(collector, rid):
                mask, scores = seg.eval(q, sim, stats)
                mask = seg._apply_live(mask)
                if dedup:
                    seg.dedup_groups(q, sim, stats, "repo", None, (), _precomputed=(mask, scores))
                else:
                    seg.top_k(q, k, sim, stats, None, cols, _precomputed=(mask, scores))
            with run.span("query.segment.facet", rid):
                seg.facet_counts(q, sim, stats, "lang", "auto", _mask=mask)


def is_traced(replay: LayerReplay | None, rid: int) -> bool:
    return replay is not None and rid % 2 == 1


def timed_request(run: Run, searcher, req: dict, rid: int, replay: LayerReplay | None):
    """One request; returns (result, latency ms).  With a replay (tracing
    on), the replay follows the request, and odd-numbered requests are
    traced: the execute call and the replay get spans under the request id."""
    q = to_query(req)
    kw = execute_kwargs(req)
    run.tracer.enabled = is_traced(replay, rid)
    run.attempted += 1
    try:
        with bl.deadline(DEADLINE_QUERY_S):
            with run.span("request", rid):
                with run.span(f"query.engine.execute.{req['kind']}", rid):
                    t0 = time.perf_counter()
                    res = searcher.execute(q, **kw)
                    dt = time.perf_counter() - t0
                if replay is not None:
                    replay.replay(req, q, rid)
    except bl.OpTimeout:
        run.fail(f"request {req}: deadline {DEADLINE_QUERY_S}s")
        raise
    except Exception as e:
        run.fail(f"request {req}: {type(e).__name__}: {e}")
        return None, None
    finally:
        run.tracer.enabled = run.trace
    run.counters["matches"] = run.counters.get("matches", 0) + res.total
    run.counters["hits"] = run.counters.get("hits", 0) + len(res.hits)
    return res, dt * 1e3


def request_shape_ok(req: dict, res) -> bool:
    """Checks every request can carry: page size and facet presence."""
    kw = execute_kwargs(req)
    if len(res.hits) > kw["stop"] - kw["start"]:
        return False
    if "facets" in kw and res.total and not res.drilldown_data.get("lang"):
        return False
    return True


# ---- trace-only probes ----------------------------------------------------


def probe_build_layers(run: Run, corpus_paths: list[str]) -> None:
    """Tokenizer and build units in this process, timed per call: the
    ``analysis`` layer over the corpus text, and one ``FileSegmentBuilder``
    call per planned unit (no Ray scheduling, no term-stats groupby)."""
    import pyarrow.compute as pc
    import pyarrow.parquet as pq
    from meresco_lucene_ray.analysis import lowered_token_codes
    from meresco_lucene_ray.index.build import FileSegmentBuilder

    scratch = os.path.join(run.work, "units")
    shutil.rmtree(scratch, ignore_errors=True)
    builder = FileSegmentBuilder(scratch, index_config())
    for shard, path in enumerate(corpus_paths):
        col = pq.read_table(path, columns=["content"])["content"].combine_chunks()
        col = pc.fill_null(col, "")
        with run.span("analysis.tokenize", shard):
            lowered_token_codes(col)
        unit = {
            "path": np.array([path]),
            "rg_start": np.array([0]),
            "rg_end": np.array([1]),
            "row_start": np.array([-1]),
            "row_len": np.array([-1]),
            "shard": np.array([shard]),
        }
        with run.span("index.build.unit", shard):
            builder(unit)
    shutil.rmtree(scratch, ignore_errors=True)


def commit_rows(seed: int, rows: np.ndarray, marker: str):
    """Corpus rows ``rows`` with ``marker`` appended to their text, so the
    commit's docs are findable by one term query."""
    import pyarrow as pa

    t = bl.corpus_rows(seed, rows)
    content = [c + " " + marker for c in t["content"].to_pylist()]
    return t.set_column(t.schema.get_field_index("content"), "content", pa.array(content))


class NrtClient:
    """Writes beside a live searcher: each commit is followed by
    ``refresh()`` and a query that must reflect it."""

    def __init__(self, run: Run, searcher, index_dir: str, base_rows: int, salt: str = ""):
        self.run = run
        self.searcher = searcher
        self.index_dir = index_dir
        self.live = list(range(base_rows))
        # probe commits add rows far past any the loop adds
        self.next_row = base_rows if not salt else 10 * base_rows
        self.rng = np.random.default_rng([run.seed, 0xC0, len(salt)])
        self.salt = salt
        self.commits = 0
        self.user_bytes = 0
        self.visible_ms: list[float] = []
        self.commit_ms: dict[str, list[float]] = {"add": [], "upsert": [], "delete": []}

    def _snapshot(self):
        return bl.file_sizes(self.index_dir) if self.run.trace else None

    def commit(self, kind: str, k: int) -> None:
        import ray.data as rd
        from meresco_lucene_ray.index import add_documents, delete_documents
        from meresco_lucene_ray.query import BoolQ, DocValEqQ, TermQ

        run, c = self.run, self.commits
        marker = f"nrtmark{self.salt}{c}"
        if kind == "add":
            rows = np.arange(self.next_row, self.next_row + k)
            self.next_row += k
        else:
            pick = self.rng.choice(len(self.live), size=min(k, len(self.live) - 1), replace=False)
            rows = np.array(sorted(self.live[i] for i in pick))
        if kind == "delete":
            ids = bl.row_ids(bl.corpus_rows(run.seed, rows))
            user = sum(len(i) for i in ids)
        else:
            table = commit_rows(run.seed, rows, marker)
            ids = bl.row_ids(table)
            user = table.nbytes
        before = self._snapshot()
        span = "index.delete_documents" if kind == "delete" else "index.add_documents"
        t0 = time.perf_counter()
        with run.span(span, c):
            if kind == "delete":
                m = run.call("delete_documents", DEADLINE_COMMIT_S, delete_documents, self.index_dir, ids)
            else:
                ds = rd.from_arrow(table)
                m = run.call("add_documents", DEADLINE_COMMIT_S, add_documents, ds, self.index_dir, index_config())
        t1 = time.perf_counter()
        if m is None:
            return
        if before is not None:
            written = bl.bytes_written(before, self._snapshot())
            run.counters["commit_bytes_written"] = run.counters.get("commit_bytes_written", 0) + written
            run.counters["commit_user_bytes"] = run.counters.get("commit_user_bytes", 0) + user
        with run.span("query.engine.refresh", c):
            run.call("refresh", DEADLINE_COMMIT_S, self.searcher.refresh)
        if kind == "delete":
            confirm = BoolQ(should=tuple(DocValEqQ("__id__", i) for i in ids))
        else:
            confirm = TermQ(marker)
        with run.span("query.engine.reopen_first_query", c):
            res = run.call("confirm query", DEADLINE_COMMIT_S, self.searcher.execute, confirm, stop=len(ids) + 5)
        t2 = time.perf_counter()
        pin_searchers()  # the reopen started new actors
        if res is None:
            return
        self.commits += 1
        self.user_bytes += user
        self.commit_ms[kind].append((t1 - t0) * 1e3)
        self.visible_ms.append((t2 - t0) * 1e3)
        got = res.hits["__id__"].to_pylist()
        if kind == "delete":
            run.check(f"commit {c}: deleted docs gone", res.total == 0)
            dead = set(rows.tolist())
            self.live = [r for r in self.live if r not in dead]
        else:
            run.check(
                f"commit {c}: {kind} visible once each",
                res.total == len(ids) and sorted(got) == sorted(ids),
            )
            if kind == "add":
                self.live.extend(rows.tolist())
            else:
                one = self.searcher.execute(DocValEqQ("__id__", ids[0]), stop=5)
                run.check(f"commit {c}: upserted doc appears once", one.total == 1)
        run.counters["segments"] = len(m.segments)
        run.counters["tombstones"] = tombstone_count(self.index_dir)


def probe_missing_layers(run: Run, searcher, index_dir: str, pool: list[dict], base_rows: int) -> None:
    """With tracing on, reach every layer the workload's loop did not: one
    traced request per missing request kind and collector, then an add and
    a delete commit, each made visible, if the loop made none.  (The build
    layers are traced while each workload prepares its index.)"""
    names = {s[1] for s in run.tracer.spans}
    replay = LayerReplay(run, index_dir)
    probes = [dict(r, opts=[]) for r in pool if f"query.engine.execute.{r['kind']}" not in names]
    probes += [dict(pool[0], opts=[o]) for o in ("facets", "dedup") if f"query.segment.{o[:5]}" not in names]
    done = set()
    for i, req in enumerate(probes):
        key = (req["kind"], tuple(req["opts"]))
        if key not in done:
            done.add(key)
            # an odd request id: traced
            timed_request(run, searcher, req, 1_000_001 + 2 * i, replay)
    for kind, span in (("add", "index.add_documents"), ("delete", "index.delete_documents")):
        if span not in names:
            NrtClient(run, searcher, index_dir, base_rows, salt=kind).commit(kind, 10)


# ---- workloads ------------------------------------------------------------


def bytes_counters(run: Run, index_dir: str) -> None:
    sizes = index_bytes(index_dir)
    for k in ("postings", "docs", "termstats"):
        run.counters[f"bytes_{k}"] = sizes[k]


def prepare_index(run: Run):
    """Seeded corpus → parquet units → built index (untimed preparation)."""
    n, units = run.sizes["docs"], run.sizes["units"]
    table = bl.corpus_rows(run.seed, np.arange(n))
    corpus_dir = os.path.join(run.work, "corpus")
    paths = write_corpus(table, corpus_dir, units)
    index_dir = os.path.join(run.work, "index")
    t0 = time.perf_counter()
    m = build(run, corpus_dir, index_dir)
    build_s = time.perf_counter() - t0
    if m is None:
        raise RuntimeError("index build failed: " + "; ".join(run.errors))
    texts = table["content"].to_pylist()
    run.record.update(
        build_s=round(build_s, 4),
        docs=n,
        segments=len(m.segments),
        terms=m.metrics.get("num_terms_global"),
        input_bytes=table.nbytes,
        corpus_parquet_bytes=bl.dir_bytes(corpus_dir),
        index_bytes=index_bytes(index_dir),
    )
    if run.trace:
        probe_build_layers(run, paths)
        bytes_counters(run, index_dir)
        run.counters["build_segments"] = len(m.segments)
    return table, texts, index_dir


def run_query(run: Run) -> dict:
    """Closed loop of Zipf-skewed requests over a built index.

    The loop runs in ``SETUP_REPS`` equal parts, each on a freshly opened
    and warmed-up searcher; the opens are the set-up reps.  Spreading the
    timed requests over the whole run, rather than one stretch after the
    last open, averages over more of the host's speed swings."""
    from meresco_lucene_ray.query.oracle import BruteForceIndex

    table, texts, index_dir = prepare_index(run)
    df = bl.document_frequencies(texts)
    pool = bl.request_pool(
        run.seed, texts, df, run.sizes["pool"], QUERY_OPTIONS, n_checks=run.sizes["checks"]
    )
    seq = bl.zipf_sequence(run.seed, len(pool), 200_000)
    oracle = BruteForceIndex(bl.row_ids(table), texts)
    golden_check(run)
    replay = LayerReplay(run, index_dir) if run.trace else None

    lat, lat_traced, by_kind, captured = [], [], {}, {}
    opens, part_p50 = [], []
    searcher, loop_s, i = None, 0.0, 0
    for part in range(SETUP_REPS):
        searcher, dt = reopen_searcher(run, index_dir, searcher)
        opens.append(dt)
        warm_up(run, searcher, pool, replay)
        part_ms = []
        t_start = time.perf_counter()
        t_end = t_start + run.seconds / SETUP_REPS
        while time.perf_counter() < t_end:
            pi = int(seq[i])
            req = pool[pi]
            res, ms = timed_request(run, searcher, req, i, replay)
            traced = is_traced(replay, i)
            i += 1
            if res is None:
                continue
            (lat_traced if traced else lat).append(ms)
            part_ms.append(ms)
            by_kind.setdefault(req["kind"], []).append(ms)
            run.check(f"request shape {req}", request_shape_ok(req, res))
            if req.get("check") and pi not in captured:
                captured[pi] = hit_pairs(res)
        loop_s += time.perf_counter() - t_start
        part_p50.append(round(bl.median(part_ms), 4) if part_ms else None)
    rss = searcher_rss_mb()
    for pi, req in enumerate(pool):
        if not req.get("check"):
            continue
        if pi not in captured:
            res = run.call("check request", DEADLINE_QUERY_S, searcher.execute, to_query(req), stop=10)
            if res is None:
                continue
            captured[pi] = hit_pairs(res)
        run.check(f"oracle top-10 {req}", same_top_k(captured[pi], oracle_ranking(oracle, req), 10))
    all_ms = lat + lat_traced
    run.record.update(
        setup_s_reps=opens,
        requests=bl.latency_summary(all_ms),
        part_p50_ms=part_p50,
        by_kind={k: bl.latency_summary(v) for k, v in sorted(by_kind.items())},
        pool_size=len(pool),
        warm_up_requests=len(pool) * SETUP_REPS,
        stats_cache_entries=bl.ENGINE_STATS_CACHE,
        repeat_share=round(bl.repeat_share(seq[:i]), 4),
        oracle_checked=len(captured),
    )
    if run.trace:
        run.counters["trace_overhead_ms"] = bl.median(lat_traced) - bl.median(lat)
        probe_missing_layers(run, searcher, index_dir, pool, run.sizes["docs"])
    searcher.close()
    return {
        "setup_s": (bl.median(opens), "s"),
        "latency_p50_ms": (bl.median(lat if run.trace else all_ms), "ms"),
        "throughput_per_s": (len(all_ms) / loop_s, "1/s"),
        "engine_rss_mb": (rss, "MB"),
        "index_bytes_per_input_byte": (run.record["index_bytes"]["total"] / table.nbytes, "ratio"),
    }


def run_ingest_nrt(run: Run) -> dict:
    """Commits beside reads on a small index: add, upsert, delete in turn,
    each made visible by ``refresh()`` and checked by a query, with a few
    reads from a small request pool between commits."""
    table, texts, index_dir = prepare_index(run)
    df = bl.document_frequencies(texts)
    pool = bl.request_pool(run.seed, texts, df, run.sizes["pool"], QUERY_OPTIONS)
    seq = bl.zipf_sequence(run.seed, len(pool), 100_000)
    golden_check(run)
    searcher, setup_s = setup_searcher(run, index_dir)
    nrt = NrtClient(run, searcher, index_dir, run.sizes["docs"])
    k = run.sizes["commit_docs"]
    kinds = ("add", "upsert", "delete")

    reads, reads_traced = [], []
    t_start = time.perf_counter()
    t_end = t_start + run.seconds
    i = c = 0
    while c == 0 or time.perf_counter() < t_end:
        kind = kinds[c % len(kinds)]
        nrt.commit(kind, k)
        c += 1
        replay = LayerReplay(run, index_dir) if run.trace else None
        for _ in range(run.sizes["reads"]):
            req = pool[int(seq[i])]
            res, ms = timed_request(run, searcher, req, i, replay)
            traced = is_traced(replay, i)
            i += 1
            if res is not None:
                (reads_traced if traced else reads).append(ms)
                run.check(f"request shape {req}", request_shape_ok(req, res))
    loop_s = time.perf_counter() - t_start
    wait_searchers(SEARCHER_ACTORS)
    rss = searcher_rss_mb()
    total_bytes = bl.dir_bytes(index_dir)
    run.record.update(
        commits=nrt.commits,
        visible=bl.latency_summary(nrt.visible_ms),
        commit_ms={kk: bl.latency_summary(v) for kk, v in nrt.commit_ms.items()},
        reads=bl.latency_summary(reads + reads_traced),
        pool_size=len(pool),
        stats_cache_entries=bl.ENGINE_STATS_CACHE,
        final_segments=run.counters.get("segments"),
        final_tombstones=run.counters.get("tombstones"),
        final_index_bytes=total_bytes,
    )
    if run.trace:
        run.counters["trace_overhead_ms"] = bl.median(reads_traced) - bl.median(reads)
        probe_missing_layers(run, searcher, index_dir, pool, run.sizes["docs"])
    searcher.close()
    return {
        "setup_s": (setup_s, "s"),
        "latency_p50_ms": (bl.median(nrt.visible_ms), "ms"),
        "throughput_per_s": (k * nrt.commits / loop_s, "1/s"),
        "engine_rss_mb": (rss, "MB"),
        "index_bytes_per_input_byte": (total_bytes / (table.nbytes + nrt.user_bytes), "ratio"),
    }


WORKLOADS = {"query": run_query, "ingest_nrt": run_ingest_nrt}


# ---- per-layer metrics ------------------------------------------------------


def _per_request_sums(tracer: bl.Tracer, names: tuple[str, ...]) -> dict[int, float]:
    out: dict[int, float] = {}
    for s in tracer.spans:
        if s[1] in names and s[5] is not None and s[3] is not None:
            out[s[5]] = out.get(s[5], 0.0) + (s[3] - s[2]) * 1e3
    return out


def layer_metrics(run: Run) -> dict[str, tuple[float, str]]:
    """Per-layer metrics from the run's spans and counters."""
    tr, cnt = run.tracer, run.counters

    def med(name: str) -> float:
        d = tr.durations_ms(name)
        return bl.median(d) if d else 0.0

    def med_sum(name: str) -> float:
        d = _per_request_sums(tr, (name,))
        return bl.median(list(d.values())) if d else 0.0

    seg_names = ("query.segment.top_k", "query.segment.facet", "query.segment.dedup")
    seg_sum = _per_request_sums(tr, seg_names)
    lookup = _per_request_sums(tr, ("query.termstats.lookup",))
    execute: dict[int, float] = {}
    for s in tr.spans:
        if s[1].startswith("query.engine.execute.") and s[3] is not None:
            execute[s[5]] = (s[3] - s[2]) * 1e3
    overhead = [ms - lookup.get(r, 0.0) - seg_sum.get(r, 0.0) for r, ms in execute.items()]
    # the part of each traced request that no layer span covers: the
    # benchmark's own work between calls
    kids: dict[int, list[tuple[float, float]]] = {}
    for s in tr.spans:
        if s[4] is not None:
            kids.setdefault(s[4], []).append((s[2], s[3]))
    request_self = [
        bl.self_time(s[2], s[3], kids.get(s[0], [])) * 1e3
        for s in tr.spans
        if s[1] == "request" and s[3] is not None
    ]
    wall = tr.durations_ms("index.build.wall")
    unit_sum = sum(tr.durations_ms("index.build.unit"))
    written, user = cnt.get("commit_bytes_written", 0), cnt.get("commit_user_bytes", 0)

    m = {
        "analysis.tokenize_ms": (sum(tr.durations_ms("analysis.tokenize")), "ms"),
        "index.build.wall_ms": (wall[-1] if wall else 0.0, "ms"),
        "index.build.unit_ms": (unit_sum, "ms"),
        "index.build.overhead_ms": ((wall[-1] if wall else 0.0) - unit_sum, "ms"),
        "index.build.segments": (cnt.get("build_segments", 0), "count"),
        "index.bytes.postings": (cnt.get("bytes_postings", 0), "bytes"),
        "index.bytes.docs": (cnt.get("bytes_docs", 0), "bytes"),
        "index.bytes.termstats": (cnt.get("bytes_termstats", 0), "bytes"),
        "index.codec.decode_ms": (med_sum("index.codec.decode"), "ms"),
        "query.termstats.lookup_ms": (med_sum("query.termstats.lookup"), "ms"),
        "query.segment.load_ms": (med_sum("query.segment.load"), "ms"),
        "query.segment.top_k_ms": (med_sum("query.segment.top_k"), "ms"),
        "query.segment.facet_ms": (med_sum("query.segment.facet"), "ms"),
        "query.segment.dedup_ms": (med_sum("query.segment.dedup"), "ms"),
        "query.segment.matches_per_hit": (cnt.get("matches", 0) / max(cnt.get("hits", 0), 1), "ratio"),
        "query.engine.open_ms": (med("query.engine.open"), "ms"),
        "query.engine.execute_ms": (bl.median(list(execute.values())) if execute else 0.0, "ms"),
        "query.engine.overhead_ms": (bl.median(overhead) if overhead else 0.0, "ms"),
        "query.engine.refresh_ms": (med("query.engine.refresh"), "ms"),
        "query.engine.reopen_first_query_ms": (med("query.engine.reopen_first_query"), "ms"),
        "index.add_documents_ms": (med("index.add_documents"), "ms"),
        "index.delete_documents_ms": (med("index.delete_documents"), "ms"),
        "index.commit.bytes_written": (written, "bytes"),
        "index.commit.write_amp": (written / user if user else 0.0, "ratio"),
        "index.segments": (cnt.get("segments", 0), "count"),
        "index.tombstones": (cnt.get("tombstones", 0), "count"),
        "trace.overhead_ms": (cnt.get("trace_overhead_ms", 0.0), "ms"),
        "trace.request_self_ms": (bl.median(request_self) if request_self else 0.0, "ms"),
    }
    for kind in bl.KINDS:
        m[f"query.engine.execute_ms.{kind}"] = (med(f"query.engine.execute.{kind}"), "ms")
    return m
