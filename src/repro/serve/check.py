"""Coalesced-vs-serial bit-identity checker (the ``serve-smoke`` job).

Usage::

    PYTHONPATH=src python -m repro.pipeline fit --save-model model.npz \\
        --query-holdout 8 --num-pairs 120 --products 10
    PYTHONPATH=src python -m repro.serve.check --model model.npz \\
        --query-holdout 8 --num-pairs 120 --products 10 --requests 200 \\
        --dump-serve serve.npz --dump-serial serial.npz

The checker rebuilds the benchmark holdout the ``fit`` command withheld,
starts an in-process :class:`~repro.serve.server.AsyncResolverServer`
on a loopback TCP port with the model **memory-mapped**, and fires
``--requests`` concurrent single-record queries (cycling the holdout)
through :class:`~repro.serve.client.ServeClient`.  It then replays the
same requests serially on an **eagerly loaded** copy of the model and
asserts, request by request:

* zero transport or server errors under concurrency;
* coalescing actually happened (``max_batch_observed > 1``);
* every coalesced result is bit-identical to its serial counterpart —
  which simultaneously proves the mmap load path byte-equivalent to
  the eager one.

Both result streams are dumped as deterministic ``.npz`` artifacts
(``--dump-serve`` / ``--dump-serial``) through one shared aggregation
helper, so CI can finish the argument with a plain ``cmp``.

``--chaos`` (the ``fault-smoke`` job) runs a different experiment: a
self-contained fit → update → serve round-trip executed twice — once
fault-free and once under a seeded :class:`~repro.faults.FaultPlan`
that SIGKILLs a pool worker mid-fit, tears the update-segment write,
and drops the serve connection mid-response.  The chaos side leans on
the stack's own recovery machinery (executor shard retry, torn-tail
quarantine on load, client reconnect-and-resend) and the checker then
asserts that **no non-typed error escaped** and that every surviving
model artifact and query result is **byte-identical** to the
fault-free run.  ``--model`` is not needed in this mode; the corpus is
built in a temporary directory.
"""

from __future__ import annotations

import argparse
import asyncio
import filecmp
import shutil
import statistics
import sys
import tempfile
import time
import warnings
from collections.abc import Sequence
from pathlib import Path

import numpy as np

from ..data.serialization import artifact_base_path, list_segment_paths, write_artifact
from ..datasets import benchmark_labeler, benchmark_names, load_benchmark
from ..exceptions import FaultInjectionError, ReloadError, ReproError
from ..faults import FaultPlan, FaultSpec, RetryPolicy
from ..model import QueryResult, QuerySession, ResolverModel
from .client import ServeClient
from .registry import DEFAULT_MODEL, ModelRegistry
from .server import AsyncResolverServer, ServeConfig

__all__ = ["build_parser", "main"]


def build_parser() -> argparse.ArgumentParser:
    """The argument parser of the serve checker."""
    parser = argparse.ArgumentParser(
        prog="repro.serve.check",
        description="Assert coalesced micro-batch queries are bit-identical to serial ones",
    )
    parser.add_argument(
        "--model",
        default=None,
        help="fitted model artifact (.npz); required unless --chaos",
    )
    parser.add_argument(
        "--dataset",
        default="amazon_mi",
        choices=benchmark_names(),
        help="benchmark the model was fitted on",
    )
    parser.add_argument("--num-pairs", type=int, default=240, help="candidate pairs")
    parser.add_argument("--products", type=int, default=20, help="products per domain")
    parser.add_argument("--seed", type=int, default=42, help="generator seed")
    parser.add_argument(
        "--query-holdout",
        type=int,
        default=6,
        help="held-out record count used at fit time",
    )
    parser.add_argument(
        "--requests", type=int, default=200, help="concurrent requests to fire"
    )
    parser.add_argument("--k", type=int, default=5, help="candidates per record")
    parser.add_argument(
        "--max-batch-size", type=int, default=16, help="server micro-batch cap"
    )
    parser.add_argument(
        "--max-wait-us",
        type=int,
        default=20000,
        help="server batching window (generous default to force coalescing)",
    )
    parser.add_argument(
        "--dump-serve", default=None, help="write the coalesced result stream here"
    )
    parser.add_argument(
        "--dump-serial", default=None, help="write the serial result stream here"
    )
    parser.add_argument(
        "--upserted",
        type=int,
        default=0,
        help=(
            "leading holdout records a prior 'repro.pipeline update' run "
            "absorbed into the corpus; they are skipped as query probes"
        ),
    )
    parser.add_argument(
        "--reload-check",
        action="store_true",
        help=(
            "also exercise the reload op: stage a copy of the base artifact, "
            "append an update segment offline, reload over TCP and assert the "
            "server picked up the grown corpus"
        ),
    )
    parser.add_argument(
        "--chaos",
        action="store_true",
        help=(
            "run the fault-injection round-trip instead: fit, update and "
            "serve a throwaway model twice (fault-free vs a seeded FaultPlan "
            "of worker kills, torn writes and dropped connections) and "
            "assert byte-identical survivors with zero non-typed errors"
        ),
    )
    parser.add_argument(
        "--chaos-seed",
        type=int,
        default=7,
        help="seed of the injected fault plan (--chaos only)",
    )
    return parser


def holdout_records(args: argparse.Namespace) -> list:
    """The benchmark records the ``fit`` command withheld from the corpus."""
    benchmark = load_benchmark(
        args.dataset,
        num_pairs=args.num_pairs,
        products_per_domain=args.products,
        seed=args.seed,
    )
    records = list(benchmark.dataset.records)
    holdout = int(args.query_holdout)
    if holdout < 1 or holdout >= len(records):
        raise SystemExit(f"--query-holdout must be in [1, {len(records) - 1}]")
    return records[-holdout:]


def aggregate_results(results: Sequence[QueryResult]) -> tuple[dict, dict]:
    """Deterministic ``(arrays, metadata)`` aggregate of a result stream.

    Shared by the serve and serial sides so the two dumps are
    byte-identical exactly when every per-request result is.  Timings
    are excluded for the same reason they are excluded from
    :meth:`~repro.model.QueryResult.as_arrays`.
    """
    arrays: dict[str, np.ndarray] = {}
    metadata: dict[str, object] = {"num_results": len(results)}
    record_ids: list[str] = []
    modes: list[str] = []
    for index, result in enumerate(results):
        part, _ = result.as_arrays()
        for name, array in part.items():
            arrays[f"{index:05d}::{name}"] = array
        record_ids.append(",".join(result.record_ids))
        modes.append(result.mode)
    metadata["record_ids"] = record_ids
    metadata["modes"] = modes
    return arrays, metadata


def _results_identical(left: QueryResult, right: QueryResult) -> bool:
    """Bit-level equality of two query results (content, not timings)."""
    left_arrays, left_meta = left.as_arrays()
    right_arrays, right_meta = right.as_arrays()
    if left_meta != right_meta or left_arrays.keys() != right_arrays.keys():
        return False
    for name, array in left_arrays.items():
        other = right_arrays[name]
        if array.dtype != other.dtype or array.shape != other.shape:
            return False
        if not np.array_equal(array, other):
            return False
    return True


async def _fire_requests(args, records) -> tuple[list[QueryResult], dict, list[float]]:
    """Serve ``--requests`` concurrent queries; returns (results, stats, latencies)."""
    server = AsyncResolverServer(
        _registry_for(args.model, mmap=True),
        ServeConfig(
            max_batch_size=args.max_batch_size,
            max_wait_us=args.max_wait_us,
            max_queue=max(2 * args.requests, 256),
        ),
    )
    tcp = await server.serve_tcp(host="127.0.0.1", port=0)
    port = tcp.sockets[0].getsockname()[1]
    latencies: list[float] = []
    try:
        async with ServeClient("127.0.0.1", port) as client:

            async def one(index: int) -> QueryResult:
                """Fire one single-record query and record its latency."""
                record = records[index % len(records)]
                start = time.perf_counter()
                result = await client.query([record], k=args.k, mode="online")
                latencies.append(time.perf_counter() - start)
                return result

            results = await asyncio.gather(
                *(one(index) for index in range(args.requests))
            )
            stats = await client.stats()
    finally:
        await server.stop()
    return list(results), stats, latencies


def _registry_for(path: str, mmap: bool):
    registry = ModelRegistry()
    registry.add(path=path, mmap=mmap)
    return registry


async def _reload_roundtrip(args, records) -> list[str]:
    """Exercise the ``reload`` op over TCP; returns failure descriptions.

    Stages a copy of the *base* artifact (no update segments), serves it
    memory-mapped, then plays the production sequence: an offline
    process appends an update segment next to the served path, the
    client sends ``reload``, and the next query must see the grown
    corpus — bit-identical to an in-process query on the updated model.
    Also asserts the typed :class:`~repro.exceptions.ReloadError` for
    instance-backed entries.
    """
    failures: list[str] = []
    upserts = records[: max(1, int(args.upserted))]
    probe = records[-1]
    if probe.record_id in {record.record_id for record in upserts}:
        return ["--reload-check needs at least one holdout record beyond --upserted"]
    with tempfile.TemporaryDirectory() as tmp:
        base = artifact_base_path(Path(args.model))
        staged = Path(tmp) / base.name
        shutil.copyfile(base, staged)
        registry = ModelRegistry()
        registry.add(path=staged, mmap=True)
        registry.add("pinned", model=ResolverModel.load(staged, mmap=False))
        server = AsyncResolverServer(
            registry,
            ServeConfig(max_batch_size=args.max_batch_size, max_wait_us=1000),
        )
        tcp = await server.serve_tcp(host="127.0.0.1", port=0)
        port = tcp.sockets[0].getsockname()[1]
        try:
            async with ServeClient("127.0.0.1", port) as client:
                # Force the lazy load so the later reload has an
                # instance to drop.
                await client.query([probe], k=args.k, mode="online")
                listing = {entry["name"]: entry for entry in await client.models()}
                base_count = listing[DEFAULT_MODEL]["corpus_records"]

                # The offline maintenance step: absorb the upserts and
                # append a sidecar segment next to the served base.
                offline = ResolverModel.load(staged, mmap=False)
                offline.update(upserts=upserts, compact="never")
                offline.save(staged)

                reply = await client.reload()
                if not reply.get("dropped"):
                    failures.append(
                        f"reload did not drop the loaded model: {reply}"
                    )
                after = await client.query([probe], k=args.k, mode="online")
                listing = {entry["name"]: entry for entry in await client.models()}
                count = listing[DEFAULT_MODEL]["corpus_records"]
                if count != base_count + len(upserts):
                    failures.append(
                        f"reloaded corpus has {count} records, expected "
                        f"{base_count} + {len(upserts)} upserts"
                    )
                serial = QuerySession(offline).query(
                    [probe], k=args.k, mode="online"
                )
                if not _results_identical(after, serial):
                    failures.append(
                        "post-reload query differs from the updated model"
                    )
                try:
                    await client.reload("pinned")
                except ReloadError:
                    pass
                else:
                    failures.append(
                        "reload of an instance-backed entry did not raise ReloadError"
                    )
        finally:
            await server.stop()
    return failures


# --------------------------------------------------------------------- chaos


def _chaos_world():
    """The throwaway corpus, holdout and pipeline config of ``--chaos``.

    The config is shared verbatim by the fault-free and the faulted run
    (models embed ``config.to_dict()`` in their artifact metadata, so
    byte-identity requires identical configs): a processes executor so
    a worker SIGKILL hits a real pool, plus a retry policy so the stack
    is expected to absorb it.
    """
    from ..config import FlexERConfig, GNNConfig, GraphConfig, MatcherConfig
    from ..data.records import Dataset

    benchmark = load_benchmark("amazon_mi", num_pairs=60, products_per_domain=8, seed=7)
    labeler, label_pair = benchmark_labeler(benchmark)
    records = list(benchmark.dataset.records)
    holdout = records[-6:]
    corpus = Dataset(
        records=records[:-6],
        name=benchmark.dataset.name,
        attributes=benchmark.dataset.attributes,
    )
    config = FlexERConfig(
        matcher=MatcherConfig(hidden_dims=(24, 12), n_features=96, epochs=2, seed=5),
        graph=GraphConfig(k_neighbors=2),
        gnn=GNNConfig(hidden_dim=16, epochs=4, seed=5),
        blocker={"type": "qgram", "min_shared": 14},
        executor={"type": "processes", "workers": 2},
        retry={"attempts": 3, "base_delay": 0.05},
    )
    return corpus, holdout, tuple(labeler.intent_names), label_pair, config


async def _chaos_serve(model_path: Path, probes, k: int) -> list[QueryResult]:
    """Serve ``model_path`` and query each probe once through a retrying client."""
    registry = ModelRegistry()
    registry.add(path=model_path, mmap=True)
    server = AsyncResolverServer(
        registry, ServeConfig(max_batch_size=4, max_wait_us=1000)
    )
    tcp = await server.serve_tcp(host="127.0.0.1", port=0)
    port = tcp.sockets[0].getsockname()[1]
    results: list[QueryResult] = []
    try:
        client = ServeClient(
            "127.0.0.1", port, retry=RetryPolicy(attempts=4, base_delay=0.05)
        )
        async with client:
            for record in probes:
                results.append(await client.query([record], k=k, mode="online"))
    finally:
        await server.stop()
    return results


def _chaos_lifecycle(
    workdir: Path, corpus, holdout, intents, label_pair, config, k: int
) -> list[QueryResult]:
    """One fit → save → update → save → serve round-trip under ``workdir``.

    The update step is written the way a restartable maintenance job
    is: if the segment write dies mid-flight (the injected torn write
    raises :class:`~repro.exceptions.FaultInjectionError` exactly where
    a crash would cut the process), the job reloads the model from disk
    — which quarantines the torn trailing segment — and redoes the
    update.  Both runs take the same nominal path, so their surviving
    bytes must match.
    """
    from ..resolver import fit

    model_path = workdir / "model.npz"
    fitted = fit(corpus, intents=intents, labeler=label_pair, config=config)
    fitted.save(model_path)

    upserts = holdout[:2]
    probes = holdout[2:]
    worker = ResolverModel.load(model_path, mmap=False)
    for _attempt in range(3):
        try:
            worker.update(upserts=upserts, compact="never")
            worker.save(model_path)
            break
        except FaultInjectionError:
            from ..update import TornSegmentWarning

            with warnings.catch_warnings():
                warnings.simplefilter("ignore", TornSegmentWarning)
                worker = ResolverModel.load(model_path, mmap=False)
    else:
        raise ReproError("chaos update step did not survive its retry budget")
    return asyncio.run(_chaos_serve(model_path, probes, k))


def _artifact_files(workdir: Path) -> list[Path]:
    """The surviving model bytes of one run: base artifact + segment chain."""
    base = artifact_base_path(workdir / "model.npz")
    return [base, *list_segment_paths(base)]


def _chaos_check(args: argparse.Namespace) -> int:
    """Run the fault-injection round-trip; returns a process exit code."""
    corpus, holdout, intents, label_pair, config = _chaos_world()
    failures: list[str] = []
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        clean_dir = root / "clean"
        chaos_dir = root / "chaos"
        faults_dir = root / "faults"
        for directory in (clean_dir, chaos_dir, faults_dir):
            directory.mkdir()

        clean_results = _chaos_lifecycle(
            clean_dir, corpus, holdout, intents, label_pair, config, args.k
        )

        plan = FaultPlan(
            specs=(
                # One pool worker dies mid-stage; shard retry must redo it.
                FaultSpec(point="exec.task", kind="crash", times=1),
                # after=1 skips the base-model save so the tear lands on
                # the update segment; seconds doubles as the cut fraction.
                FaultSpec(
                    point="storage.artifact_write",
                    kind="torn_write",
                    times=1,
                    after=1,
                    seconds=0.5,
                ),
                # The server aborts the TCP transport mid-response twice;
                # the client must reconnect and resend.
                FaultSpec(point="serve.send", kind="drop", times=2),
            ),
            seed=args.chaos_seed,
            state_dir=str(faults_dir),
        )
        chaos_results: list[QueryResult] | None = None
        try:
            with plan:
                chaos_results = _chaos_lifecycle(
                    chaos_dir, corpus, holdout, intents, label_pair, config, args.k
                )
        except ReproError as error:
            failures.append(
                f"typed error escaped the chaos lifecycle: "
                f"{type(error).__name__}: {error}"
            )
        except Exception as error:  # noqa: BLE001 - the whole point of the job
            failures.append(
                f"NON-TYPED error escaped the chaos lifecycle: "
                f"{type(error).__name__}: {error}"
            )

        # Every configured fault must actually have fired (the state_dir
        # markers are written on each cross-process claim) — otherwise
        # the run proved nothing.
        fired = {int(marker.name.split("-")[1]) for marker in faults_dir.glob("fired-*")}
        for index, spec in enumerate(plan.specs):
            if index not in fired:
                failures.append(
                    f"fault {spec.point!r} ({spec.kind}) never fired — "
                    "the chaos run was vacuous"
                )

        if chaos_results is not None:
            torn = list(chaos_dir.glob("*.torn"))
            if not torn:
                failures.append(
                    "no quarantined .torn segment found — the torn write "
                    "was not recovered through the load path"
                )
            clean_files = _artifact_files(clean_dir)
            chaos_files = _artifact_files(chaos_dir)
            if [f.name for f in clean_files] != [f.name for f in chaos_files]:
                failures.append(
                    f"surviving artifact sets differ: "
                    f"{[f.name for f in clean_files]} vs "
                    f"{[f.name for f in chaos_files]}"
                )
            else:
                for clean_file, chaos_file in zip(clean_files, chaos_files):
                    if not filecmp.cmp(clean_file, chaos_file, shallow=False):
                        failures.append(
                            f"artifact {clean_file.name} differs between the "
                            "fault-free and the faulted run"
                        )
            if len(chaos_results) != len(clean_results):
                failures.append(
                    f"expected {len(clean_results)} query results, "
                    f"got {len(chaos_results)}"
                )
            else:
                mismatches = sum(
                    not _results_identical(chaos, clean)
                    for chaos, clean in zip(chaos_results, clean_results)
                )
                if mismatches:
                    failures.append(
                        f"{mismatches}/{len(clean_results)} query results "
                        "differ between the fault-free and the faulted run"
                    )

    if failures:
        for failure in failures:
            print(f"serve.check FAILED: {failure}", file=sys.stderr)
        return 1
    print(
        "serve.check OK: fit/update/serve survived worker kill, torn segment "
        "write and dropped connections with byte-identical artifacts and results"
    )
    return 0


def main(argv: Sequence[str] | None = None) -> int:
    """Run the checker; returns 0 only if every assertion holds."""
    args = build_parser().parse_args(argv)
    if args.chaos:
        return _chaos_check(args)
    if not args.model:
        raise SystemExit("--model is required (unless running --chaos)")
    holdout = holdout_records(args)
    upserted = int(args.upserted)
    if upserted < 0 or upserted >= len(holdout):
        raise SystemExit(f"--upserted must be in [0, {len(holdout) - 1}]")
    # Records a prior update run absorbed into the corpus stop being
    # interesting probes; query the still-unseen remainder.
    records = holdout[upserted:]
    serve_results, stats, latencies = asyncio.run(_fire_requests(args, records))

    failures: list[str] = []
    if len(serve_results) != args.requests:
        failures.append(
            f"expected {args.requests} results, got {len(serve_results)}"
        )
    if stats.get("requests_failed") or stats.get("requests_rejected"):
        failures.append(f"server reported errors: {stats}")
    if args.requests > 1 and stats.get("max_batch_observed", 0) <= 1:
        failures.append(
            "no coalescing observed (max_batch_observed <= 1) — "
            "the batching scheduler did not merge concurrent requests"
        )

    # Serial ground truth on an *eagerly* loaded model: one session,
    # one query per unique record, no batching anywhere.
    model = ResolverModel.load(args.model, mmap=False)
    session = QuerySession(model)
    serial_unique = [
        session.query([record], k=args.k, mode="online") for record in records
    ]
    serial_results = [
        serial_unique[index % len(records)] for index in range(args.requests)
    ]

    mismatches = sum(
        not _results_identical(serve, serial)
        for serve, serial in zip(serve_results, serial_results)
    )
    if mismatches:
        failures.append(
            f"{mismatches}/{args.requests} coalesced results differ from serial"
        )

    if args.dump_serve:
        arrays, metadata = aggregate_results(serve_results)
        write_artifact(args.dump_serve, arrays, metadata)
    if args.dump_serial:
        arrays, metadata = aggregate_results(serial_results)
        write_artifact(args.dump_serial, arrays, metadata)

    if args.reload_check:
        reload_failures = asyncio.run(_reload_roundtrip(args, holdout))
        failures.extend(reload_failures)
        if not reload_failures:
            print(
                "serve.check: reload round-trip OK "
                "(segment appended offline, picked up over TCP)"
            )

    sorted_latencies = sorted(latencies) or [0.0]
    print(
        f"serve.check: {args.requests} requests over {len(records)} unique records, "
        f"{stats.get('batches_flushed', 0)} batches "
        f"(max {stats.get('max_batch_observed', 0)} records), "
        f"p50 {1e3 * statistics.median(sorted_latencies):.1f} ms, "
        f"p99 {1e3 * sorted_latencies[int(0.99 * (len(sorted_latencies) - 1))]:.1f} ms"
    )
    if failures:
        for failure in failures:
            print(f"serve.check FAILED: {failure}", file=sys.stderr)
        return 1
    print("serve.check OK: coalesced results bit-identical to serial (mmap == eager)")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
