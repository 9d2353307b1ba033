"""Command-line entry point: ``repro-experiments``.

Runs any of the paper's experiments from the shell and prints the
corresponding table, e.g.::

    repro-experiments datasets
    repro-experiments curve cora
    repro-experiments representations --datasets cora restaurant
    REPRO_SCALE=smoke repro-experiments seeding
"""

from __future__ import annotations

import argparse
import os
import sys

from repro.datasets import DATASET_NAMES
from repro.engine.executor import WORKERS_ENV, parse_workers_spec
from repro.engine.store import CACHE_ENV, ColumnStore
from repro.matching.engine import BLOCKER_ENV
from repro.experiments import drivers
from repro.experiments.scale import current_scale
from repro.experiments.tables import format_table


def _print_dataset_statistics(args: argparse.Namespace) -> None:
    rows = drivers.dataset_statistics(seed=args.seed)
    print(
        format_table(
            ["Dataset", "|A|", "|B|", "|R+|", "|R-|", "|A.P|", "|B.P|", "CA", "CB"],
            [
                [
                    r["name"], r["entities_a"], r["entities_b"],
                    r["positive_links"], r["negative_links"],
                    r["properties_a"], r["properties_b"],
                    r["coverage_a"], r["coverage_b"],
                ]
                for r in rows
            ],
            title="Tables 5 & 6: dataset statistics",
        )
    )


def _print_learning_curve(args: argparse.Namespace) -> None:
    result = drivers.learning_curve(args.dataset, seed=args.seed)
    rows = [
        [
            row.iteration,
            row.seconds.format(1),
            row.train_f_measure.format(),
            row.validation_f_measure.format(),
        ]
        for row in result.rows
    ]
    print(
        format_table(
            ["Iter.", "Time in s (σ)", "Train. F1 (σ)", "Val. F1 (σ)"],
            rows,
            title=f"Learning curve: {args.dataset} ({result.runs} runs)",
        )
    )
    if args.baseline:
        reference = drivers.carvalho_reference(args.dataset, seed=args.seed)
        print(
            f"Carvalho et al. reference: train "
            f"{reference.train_f_measure.format()}, validation "
            f"{reference.validation_f_measure.format()}"
        )


def _print_representations(args: argparse.Namespace) -> None:
    table = drivers.representation_comparison(tuple(args.datasets), seed=args.seed)
    rows = [
        [name] + [table[name][r].format() for r in ("boolean", "linear", "nonlinear", "full")]
        for name in table
    ]
    print(
        format_table(
            ["Dataset", "Boolean", "Linear", "Nonlin.", "Full"],
            rows,
            title="Table 13: representation comparison (validation F1)",
        )
    )


def _print_seeding(args: argparse.Namespace) -> None:
    table = drivers.seeding_comparison(tuple(args.datasets), seed=args.seed)
    rows = [
        [name, table[name]["random"].format(), table[name]["seeded"].format()]
        for name in table
    ]
    print(
        format_table(
            ["Dataset", "Random", "Seeded"],
            rows,
            title="Table 14: initial population F1",
        )
    )


def _learn_rule(args: argparse.Namespace) -> None:
    """Learn one rule on a dataset; optionally prune/chart/export it."""
    import random

    from repro.core.evaluation import PairEvaluator
    from repro.core.genlink import GenLink, GenLinkConfig
    from repro.core.pruning import prune_rule
    from repro.core.serialization import render_rule
    from repro.data.splits import train_validation_split
    from repro.datasets import load_dataset
    from repro.experiments.figures import Series, line_chart
    from repro.silk import SilkInterlink, silk_config

    scale = current_scale()
    dataset = load_dataset(
        args.dataset, seed=args.seed, scale=scale.effective_dataset_scale(0)
    )
    rng = random.Random(args.seed)
    train, validation = train_validation_split(dataset.links, rng)
    config = GenLinkConfig(
        population_size=scale.population_size,
        max_iterations=scale.max_iterations,
    )
    result = GenLink(config).learn(
        dataset.source_a, dataset.source_b, train, validation, rng=rng
    )
    rule = result.best_rule
    final = result.history[-1]
    print(render_rule(rule, title=f"learned rule ({args.dataset})"))
    print(
        f"\ntrain F1 {final.train_f_measure:.3f}, "
        f"validation F1 {final.validation_f_measure:.3f}, "
        f"{final.iteration} iteration(s)"
    )

    if args.prune:
        pairs, labels = train.labelled_pairs(dataset.source_a, dataset.source_b)
        pruned = prune_rule(rule, PairEvaluator(pairs), labels)
        print("\n" + pruned.describe())
        print(render_rule(pruned.rule, title="pruned rule"))
        rule = pruned.rule

    if args.execute:
        from repro.matching.engine import MatchingEngine
        from repro.matching.evaluation import evaluate_links

        engine = MatchingEngine()
        try:
            links = engine.execute(rule, dataset.source_a, dataset.source_b)
        finally:
            engine.close()
        stats = engine.last_run_stats()
        evaluation = evaluate_links(links, dataset.links.positive)
        print(
            f"\nexecuted over the full sources: {len(links)} link(s) from "
            f"{stats.pairs} candidate pair(s) in {stats.batches} shard(s)"
        )
        print(
            f"precision={evaluation.precision:.3f} "
            f"recall={evaluation.recall:.3f} F1={evaluation.f_measure:.3f}"
        )
        if stats.store is not None:
            store = stats.store
            print(
                f"[engine store] hits={store.hits} misses={store.misses} "
                f"writes={store.writes} index_hits={store.index_hits} "
                f"index_misses={store.index_misses}",
                file=sys.stderr,
            )

    if args.chart:
        iterations = tuple(float(r.iteration) for r in result.history)
        print()
        print(
            line_chart(
                [
                    Series(
                        "train F1",
                        iterations,
                        tuple(r.train_f_measure for r in result.history),
                    ),
                    Series(
                        "validation F1",
                        iterations,
                        tuple(
                            r.validation_f_measure
                            for r in result.history
                            if r.validation_f_measure is not None
                        ),
                    ),
                ],
                y_min=0.0,
                y_max=1.0,
                title=f"{args.dataset}: F-measure over iterations",
            )
        )

    if args.silk:
        interlink = SilkInterlink(
            id=args.dataset,
            rule=rule,
            source_dataset=dataset.source_a.name,
            target_dataset=dataset.source_b.name,
        )
        print()
        print(silk_config([interlink]))

    if args.publish:
        from repro.registry import RuleRegistry

        registry = RuleRegistry(_rules_dir(args))
        version = registry.publish(
            args.publish,
            rule,
            provenance={
                "dataset": args.dataset,
                "seed": args.seed,
                "scale": scale.effective_dataset_scale(0),
                "source_fingerprints": {
                    "a": dataset.source_a.fingerprint(),
                    "b": dataset.source_b.fingerprint(),
                },
                "train_f_measure": final.train_f_measure,
                "validation_f_measure": final.validation_f_measure,
                "iterations": final.iteration,
                "pruned": bool(args.prune),
            },
        )
        print(
            f"\npublished {version.ref} ({version.rule_hash[:12]}) "
            f"into {registry.root}"
        )


def _cache_maintenance(args: argparse.Namespace) -> None:
    """``cache info | gc | clear`` over the persistent column store."""
    path = os.environ.get(CACHE_ENV, "")
    if not path:
        print(
            f"no cache directory configured: pass --cache-dir or set "
            f"{CACHE_ENV}",
            file=sys.stderr,
        )
        raise SystemExit(2)
    store = ColumnStore(path)
    if args.action == "info":
        info = store.describe()
        print(f"cache directory : {info['path']}")
        print(f"columns         : {info['columns']}")
        print(f"indexes         : {info['indexes']}")
        print(f"probe ledgers   : {info['probes']}")
        print(f"delta epochs    : {info['epochs']}")
        print(f"bytes           : {info['bytes']}")
    elif args.action == "gc":
        result = store.gc(
            max_age_days=args.max_age_days, max_bytes=args.max_bytes
        )
        print(
            f"removed {result.removed} column(s), freed "
            f"{result.freed_bytes} bytes; {result.kept} column(s) "
            f"({result.kept_bytes} bytes) kept"
        )
    elif args.action == "clear":
        removed = store.clear()
        print(f"removed {removed} column(s)")
    else:  # pragma: no cover - argparse restricts choices
        raise SystemExit(f"unknown cache action {args.action!r}")


def _run_delta(args: argparse.Namespace) -> None:
    """``delta``: cold run vs incremental re-run after a random delta."""
    import random
    import tempfile
    import time

    from repro.datasets import load_dataset
    from repro.experiments.scale import current_scale
    from repro.matching.engine import MatchingEngine
    from repro.matching.incremental import (
        dataset_rule,
        random_source_delta,
        rebuilt,
    )

    scale = current_scale()
    dataset = load_dataset(
        args.dataset, seed=args.seed, scale=scale.effective_dataset_scale(0)
    )
    rule = dataset_rule(args.dataset)
    source_a, source_b = dataset.source_a, dataset.source_b
    dedup = source_a is source_b
    rng = random.Random(args.seed)

    # Index patching needs a persistent store shared by the cold and
    # delta runs; fall back to a throwaway one when none is configured.
    cache_dir = os.environ.get(CACHE_ENV, "")
    scratch = None if cache_dir else tempfile.TemporaryDirectory()
    engine = MatchingEngine(cache_dir=cache_dir or scratch.name)
    try:
        started = time.perf_counter()
        previous = list(engine.execute(rule, source_a, source_b))
        cold_seconds = time.perf_counter() - started
        cold_stats = engine.last_run_stats()

        delta_a = random_source_delta(
            source_a, rng, upserts=args.upserts, deletes=args.deletes
        )
        deltas_a = [delta_a]
        deltas_b = deltas_a if dedup else [
            random_source_delta(
                source_b, rng, upserts=args.upserts, deletes=args.deletes
            )
        ]
        started = time.perf_counter()
        diff = engine.link_diff(
            rule, source_a, source_b, previous,
            deltas_a=deltas_a, deltas_b=deltas_b,
        )
        delta_seconds = time.perf_counter() - started
        stats = diff.stats
    finally:
        engine.close()
        if scratch is not None:
            scratch.cleanup()

    changed = {u for d in deltas_a for u in d.changed_uids}
    if not dedup:
        changed |= {u for d in deltas_b for u in d.changed_uids}
    print(
        f"cold run        : {len(previous)} link(s) from "
        f"{cold_stats.pairs} pair(s) in {cold_seconds:.3f}s"
    )
    print(
        f"delta applied   : {len(changed)} changed uid(s) "
        f"({args.upserts} upsert(s), {args.deletes} delete(s) per side)"
    )
    affected = (
        "all (full re-run)"
        if diff.affected_uids is None
        else str(len(diff.affected_uids))
    )
    print(
        f"incremental run : {len(diff.links)} link(s), "
        f"{diff.rescored_pairs} pair(s) re-scored, "
        f"{diff.kept_links} link(s) carried over in {delta_seconds:.3f}s"
    )
    speedup = cold_seconds / delta_seconds if delta_seconds > 0 else float("inf")
    print(f"affected probes : {affected}")
    print(
        f"diff            : +{len(diff.added)} -{len(diff.removed)} "
        f"={len(diff.unchanged)}"
    )
    print(f"speedup         : {speedup:.1f}x")
    if stats is not None:
        print(
            f"index reuse     : {stats.index_patches} patched, "
            f"{stats.index_builds} rebuilt (window depth "
            f"{stats.window_depth})"
        )
        if stats.store is not None:
            store = stats.store
            print(
                f"[engine store] hits={store.hits} misses={store.misses} "
                f"writes={store.writes} index_hits={store.index_hits} "
                f"index_misses={store.index_misses} "
                f"probe_hits={store.probe_hits} "
                f"probe_misses={store.probe_misses}",
                file=sys.stderr,
            )
    if args.verify:
        verifier = MatchingEngine()
        try:
            # One rebuilt object per distinct source: a dedup run must
            # stay a dedup run (source_a is source_b) after the rebuild.
            cold_a = rebuilt(source_a)
            cold_b = cold_a if dedup else rebuilt(source_b)
            cold = list(verifier.execute(rule, cold_a, cold_b))
        finally:
            verifier.close()
        identical = [
            (l.uid_a, l.uid_b, l.score) for l in diff.links
        ] == [(l.uid_a, l.uid_b, l.score) for l in cold]
        print(f"verification    : {'identical to cold rerun' if identical else 'MISMATCH'}")
        if not identical:
            raise SystemExit(1)


def _service_dir(args: argparse.Namespace) -> str:
    """The service directory a service command operates on (CLI flag,
    then ``REPRO_SERVICE_DIR``)."""
    from repro.service import SERVICE_DIR_ENV

    path = args.service_dir or os.environ.get(SERVICE_DIR_ENV, "")
    if not path:
        print(
            f"no service directory: pass --service-dir or set "
            f"{SERVICE_DIR_ENV}",
            file=sys.stderr,
        )
        raise SystemExit(2)
    return path


def _open_service(args: argparse.Namespace):
    from repro.service import LinkageService

    return LinkageService(
        root=_service_dir(args),
        queue=getattr(args, "queue", None),
        rules_dir=getattr(args, "rules_dir", None),
    )


def _rules_dir(args: argparse.Namespace) -> str:
    """The registry directory a command operates on: ``--rules-dir``,
    then ``REPRO_RULES_DIR``, then ``<service dir>/rules`` when a
    service directory is in reach."""
    from repro.registry import RULES_DIR_ENV, resolve_rules_dir
    from repro.service import SERVICE_DIR_ENV

    service_dir = getattr(args, "service_dir", None) or os.environ.get(
        SERVICE_DIR_ENV, ""
    )
    path = resolve_rules_dir(
        getattr(args, "rules_dir", None),
        default=os.path.join(service_dir, "rules") if service_dir else None,
    )
    if path is None:
        print(
            f"no rules directory: pass --rules-dir or set {RULES_DIR_ENV}",
            file=sys.stderr,
        )
        raise SystemExit(2)
    return str(path)


def _run_service_worker(
    root: str,
    worker_id: str,
    cache_dir: str,
    rules_dir: str,
    drain: bool,
    lease: float,
) -> None:
    """Entry point of one spawned worker process (module-level so the
    multiprocessing start method can import it)."""
    from repro.service import run_worker

    run_worker(
        root,
        worker_id=worker_id,
        cache_dir=cache_dir,
        rules_dir=rules_dir,
        drain=drain,
        lease=lease,
    )


def _serve(args: argparse.Namespace) -> None:
    """``serve``: run N queue workers over a service directory."""
    import multiprocessing

    service = _open_service(args)
    if service.inline:
        print(
            "no queue backend to serve (inline queue requested); "
            "submissions to this directory will execute inline",
            file=sys.stderr,
        )
        raise SystemExit(2)
    count = max(1, args.service_workers)
    print(
        f"serving {service.root} with {count} worker(s) "
        f"[queue={service.queue.name} cache={service.cache_dir}"
        f"{' drain' if args.drain else ''}]",
        file=sys.stderr,
    )
    processes = [
        multiprocessing.Process(
            target=_run_service_worker,
            args=(
                str(service.root),
                f"worker-{index}",
                service.cache_dir,
                service.rules_dir,
                args.drain,
                args.lease,
            ),
            name=f"repro-worker-{index}",
        )
        for index in range(count)
    ]
    for process in processes:
        process.start()
    try:
        for process in processes:
            process.join()
    except KeyboardInterrupt:  # pragma: no cover - interactive stop
        for process in processes:
            process.terminate()
        for process in processes:
            process.join()
    failed = [p.name for p in processes if p.exitcode not in (0, None)]
    if failed:
        raise SystemExit(f"worker process(es) exited nonzero: {failed}")


def _submit(args: argparse.Namespace) -> None:
    """``submit``: create a job (link, learn, or delta) and optionally
    wait for its terminal state."""
    if args.rule and args.rule_json:
        print(
            "--rule and --rule-json are mutually exclusive: a job runs "
            "either a registry reference or an inline rule file, not both",
            file=sys.stderr,
        )
        raise SystemExit(2)
    if args.learn and (args.rule or args.rule_json):
        print(
            "--learn jobs learn their rule; --rule/--rule-json do not apply",
            file=sys.stderr,
        )
        raise SystemExit(2)
    service = _open_service(args)
    try:
        if args.parent:
            record = service.submit(
                "delta",
                parent=args.parent,
                seed=args.seed,
                upserts=args.upserts,
                deletes=args.deletes,
                deadline=args.deadline,
            )
        else:
            if not args.dataset:
                print(
                    "submit needs a dataset (or --parent for delta jobs)",
                    file=sys.stderr,
                )
                raise SystemExit(2)
            rule: str | dict | None = args.rule
            if args.rule_json:
                import json

                rule = json.loads(
                    open(args.rule_json, encoding="utf-8").read()
                )
            if args.learn:
                record = service.submit(
                    "learn",
                    dataset=args.dataset,
                    seed=args.seed,
                    scale=args.scale,
                    population_size=args.population,
                    iterations=args.iterations,
                    publish=args.publish,
                    deadline=args.deadline,
                )
            else:
                record = service.submit(
                    "link",
                    dataset=args.dataset,
                    seed=args.seed,
                    scale=args.scale,
                    rule=rule,
                    deadline=args.deadline,
                )
        if args.wait and record.state not in ("succeeded", "failed"):
            record = service.wait(record.job_id, timeout=args.timeout)
        print(f"{record.job_id} {record.state}")
        if record.state == "failed":
            print(f"error: {record.error}", file=sys.stderr)
            raise SystemExit(1)
    finally:
        service.close()


def _job_stats_lines(record) -> list[str]:
    """Human-readable stat lines of one job record (plus the greppable
    ``[job store]`` counter line the CI smoke leg asserts on)."""
    lines: list[str] = []
    ref = (record.result or {}).get("rule_ref") or record.spec.get("rule_ref")
    if ref:
        rule_hash = (record.result or {}).get("rule_hash") or record.spec.get(
            "rule_hash"
        )
        suffix = f" {rule_hash[:12]}" if rule_hash else ""
        lines.append(f"  rule: {ref}{suffix}")
    stats = record.stats or {}
    if stats:
        lines.append(
            f"  pairs={stats.get('pairs')} links={stats.get('links')} "
            f"batches={stats.get('batches')} "
            f"index_builds={stats.get('index_builds')} "
            f"index_patches={stats.get('index_patches')}"
        )
        store = stats.get("store")
        if store:
            lines.append(
                f"  [job store] hits={store['hits']} "
                f"misses={store['misses']} writes={store['writes']} "
                f"index_hits={store['index_hits']} "
                f"index_misses={store['index_misses']} "
                f"probe_hits={store['probe_hits']} "
                f"probe_misses={store['probe_misses']}"
            )
        degraded = stats.get("degraded")
        if degraded:
            lines.append(f"  degraded: {'; '.join(degraded)}")
    if record.result:
        summary = {
            key: value
            for key, value in record.result.items()
            if key != "rule"
        }
        lines.append(f"  result: {summary}")
    if record.error:
        lines.append(f"  error: {record.error}")
    return lines


def _status(args: argparse.Namespace) -> None:
    """``status``: one job's record, or a table of every job."""
    service = _open_service(args)
    if args.job_id:
        record = service.status(args.job_id)
        print(
            f"{record.job_id} {record.kind} {record.state} "
            f"attempts={record.attempts}/{record.max_attempts} "
            f"worker={record.worker or '-'}"
        )
        for line in _job_stats_lines(record):
            print(line)
        return
    rows = [
        [
            record.job_id,
            record.kind,
            record.state,
            f"{record.attempts}/{record.max_attempts}",
            record.worker or "-",
            (record.result or {}).get("links", "-"),
        ]
        for record in service.store.records()
    ]
    print(
        format_table(
            ["Job", "Kind", "State", "Attempts", "Worker", "Links"],
            rows,
            title=f"jobs in {service.root}",
        )
    )


def _links_cmd(args: argparse.Namespace) -> None:
    """``links``: print a job's stored links — or, with ``--direct``, a
    direct in-process ``MatchingEngine.execute`` over the same inputs,
    in the identical format (the byte-parity check's other half).
    ``--direct --rule`` resolves the executed rule from the registry,
    so a registry-backed job has a bypass-the-service oracle too."""
    if args.direct:
        from repro.datasets import load_dataset
        from repro.matching.engine import MatchingEngine
        from repro.matching.incremental import dataset_rule

        if args.target not in DATASET_NAMES:
            print(
                f"--direct takes a dataset name, got {args.target!r}",
                file=sys.stderr,
            )
            raise SystemExit(2)
        if args.rule:
            from repro.registry import RegistryError, RuleRegistry

            try:
                rule = (
                    RuleRegistry(_rules_dir(args))
                    .resolve(args.rule)
                    .linkage_rule()
                )
            except RegistryError as error:
                print(f"registry: {error}", file=sys.stderr)
                raise SystemExit(1)
        else:
            rule = dataset_rule(args.target)
        dataset = load_dataset(args.target, seed=args.seed, scale=args.scale)
        engine = MatchingEngine()
        try:
            links = engine.execute(
                rule, dataset.source_a, dataset.source_b
            )
        finally:
            engine.close()
    else:
        service = _open_service(args)
        links = service.links(args.target)
    for link in links:
        print(f"{link.uid_a}\t{link.uid_b}\t{link.score!r}")


def _cancel(args: argparse.Namespace) -> None:
    """``cancel``: fail a queued job now, or flag a running one."""
    service = _open_service(args)
    try:
        record = service.cancel(args.job_id)
    except ValueError as error:
        print(str(error), file=sys.stderr)
        raise SystemExit(1)
    if record.state == "running":
        print(f"{record.job_id} running (cancellation requested)")
    else:
        print(f"{record.job_id} {record.state}")


def _health(args: argparse.Namespace) -> None:
    """``health``: the service's queue/store/worker/job snapshot."""
    import json

    service = _open_service(args)
    print(json.dumps(service.health(), indent=2, sort_keys=True))


def _rules_cmd(args: argparse.Namespace) -> None:
    """``rules``: manage the multi-tenant rule registry.

    ``publish`` appends the next version of a lineage, ``activate``
    flips its ``@active`` pointer, ``list``/``show``/``diff`` inspect
    what's stored, and ``migrate`` re-validates a stored version
    against a dataset's live schema (``--check`` exits nonzero on
    gaps; ``--apply`` publishes the auto-patched rule as the next
    version). Output stays machine-greppable like the other service
    commands."""
    import json

    from repro.registry import (
        MigrationError,
        RefError,
        RegistryError,
        RuleRegistry,
        migrate_version,
    )

    registry = RuleRegistry(_rules_dir(args))
    try:
        if args.rules_command == "publish":
            if args.from_json:
                rule = json.loads(
                    open(args.from_json, encoding="utf-8").read()
                )
            else:
                from repro.matching.incremental import dataset_rule

                rule = dataset_rule(args.dataset)
            provenance = {"published_by": "cli"}
            if args.dataset:
                provenance["dataset"] = args.dataset
            version = registry.publish(args.ref, rule, provenance=provenance)
            if args.activate:
                registry.activate(version.ref)
            active = " active" if args.activate else ""
            print(f"{version.ref} {version.rule_hash}{active}")
        elif args.rules_command == "list":
            from repro.registry import RuleRef

            tenant = scenario = None
            if args.prefix:
                parts = args.prefix.split("/")
                if len(parts) > 2:
                    print(
                        f"list takes tenant[/scenario], got {args.prefix!r}",
                        file=sys.stderr,
                    )
                    raise SystemExit(2)
                tenant = parts[0]
                scenario = parts[1] if len(parts) == 2 else None
            rows = []
            for lineage in registry.lineages(tenant, scenario):
                versions = registry.versions(lineage)
                active = registry.active_version(lineage)
                rows.append(
                    [
                        lineage.lineage,
                        len(versions),
                        f"v{active}" if active else "-",
                    ]
                )
            print(
                format_table(
                    ["Lineage", "Versions", "Active"],
                    rows,
                    title=f"lineages in {registry.root}",
                )
            )
        elif args.rules_command == "show":
            from repro.core.serialization import render_rule

            version = registry.resolve(args.ref)
            print(f"{version.ref} {version.rule_hash}")
            active = registry.active_version(version.ref)
            print(f"active: {'v' + str(active) if active else '-'}")
            if version.provenance:
                print("provenance:")
                for key in sorted(version.provenance):
                    print(f"  {key}: {version.provenance[key]}")
            print(render_rule(version.linkage_rule(), title=str(version.ref)))
        elif args.rules_command == "activate":
            version = registry.activate(args.ref)
            print(f"{version.ref} active")
        elif args.rules_command == "diff":
            lines = registry.diff(args.ref_a, args.ref_b)
            if not lines:
                print(f"{args.ref_a} and {args.ref_b} are identical")
            for line in lines:
                print(line)
        elif args.rules_command == "migrate":
            from repro.datasets import load_dataset

            dataset = load_dataset(
                args.dataset, seed=args.seed, scale=args.scale
            )
            report, published = migrate_version(
                registry,
                args.ref,
                dataset.source_a,
                dataset.source_b,
                apply=args.apply,
            )
            print(report.describe())
            if published is not None:
                print(f"published {published.ref} {published.rule_hash}")
                diff = published.provenance.get("migration_diff") or []
                for line in diff:
                    print(line)
            if not report.ok and (args.check or not args.apply):
                raise SystemExit(1)
        else:  # pragma: no cover - argparse restricts choices
            raise SystemExit(f"unknown rules command {args.rules_command!r}")
    except (RefError, ValueError) as error:
        print(str(error), file=sys.stderr)
        raise SystemExit(2)
    except MigrationError as error:
        print(f"migration: {error}", file=sys.stderr)
        raise SystemExit(1)
    except RegistryError as error:
        print(f"registry: {error}", file=sys.stderr)
        raise SystemExit(1)


def _print_crossover(args: argparse.Namespace) -> None:
    comparisons = drivers.crossover_comparison(tuple(args.datasets), seed=args.seed)
    for iteration_index in range(2):
        rows = []
        for comparison in comparisons:
            iteration = comparison.iterations[iteration_index]
            rows.append(
                [
                    comparison.dataset,
                    comparison.subtree[iteration].format(),
                    comparison.specialised[iteration].format(),
                ]
            )
        iteration = comparisons[0].iterations[iteration_index] if comparisons else 0
        print(
            format_table(
                ["Dataset", "Subtree C.", "Our Approach"],
                rows,
                title=f"Table 15: crossover comparison at {iteration} iterations",
            )
        )
        print()


def main(argv: list[str] | None = None) -> int:
    """Entry point of the ``repro-experiments`` command."""
    parser = argparse.ArgumentParser(
        prog="repro-experiments",
        description="Reproduce the GenLink paper's experiments.",
    )
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument(
        "--workers",
        default=None,
        metavar="SPEC",
        help="engine executor: 0/serial, N or thread:N (thread pool; "
        "parallelises fitness evaluation and link generation) or "
        "process:N (process pool; parallelises link-generation "
        "sharding only — learning runs serially); results are "
        "identical for every setting (default: the "
        f"{WORKERS_ENV} environment variable)",
    )
    parser.add_argument(
        "--cache-dir",
        default=None,
        metavar="PATH",
        help="persistent distance-column/blocking-index store: repeated "
        "runs over the same sources load cached columns and indexes "
        "instead of rebuilding them (results are byte-identical either "
        f"way; default: the {CACHE_ENV} environment variable)",
    )
    parser.add_argument(
        "--blocker",
        default=None,
        choices=("auto", "multiblock", "rule", "full"),
        help="default blocking strategy for link generation: auto "
        "(rule-structure-aware selection), multiblock (aggregation-"
        "aware multidimensional indexes), rule (token blocking on the "
        "compared properties) or full (no blocking; exact but "
        f"quadratic). Default: the {BLOCKER_ENV} environment variable",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    subparsers.add_parser("datasets", help="Tables 5 & 6")

    curve = subparsers.add_parser("curve", help="Tables 7-12")
    curve.add_argument("dataset", choices=DATASET_NAMES)
    curve.add_argument(
        "--baseline", action="store_true", help="also run the Carvalho baseline"
    )

    for name, help_text in (
        ("representations", "Table 13"),
        ("seeding", "Table 14"),
        ("crossover", "Table 15"),
    ):
        sub = subparsers.add_parser(name, help=help_text)
        sub.add_argument(
            "--datasets", nargs="+", choices=DATASET_NAMES,
            default=list(DATASET_NAMES),
        )

    learn = subparsers.add_parser(
        "learn", help="learn one rule on a dataset and inspect it"
    )
    learn.add_argument("dataset", choices=DATASET_NAMES)
    learn.add_argument(
        "--prune", action="store_true", help="prune the learned rule"
    )
    learn.add_argument(
        "--chart", action="store_true", help="ASCII learning-curve chart"
    )
    learn.add_argument(
        "--silk", action="store_true", help="print a Silk-LSL configuration"
    )
    learn.add_argument(
        "--execute",
        action="store_true",
        help="execute the learned rule over the full sources (uses the "
        "--blocker strategy) and report link quality",
    )
    learn.add_argument(
        "--publish", default=None, metavar="REF",
        help="publish the learned (post-prune) rule into this registry "
        "lineage (tenant/scenario/name)",
    )
    learn.add_argument(
        "--rules-dir", default=None, metavar="PATH",
        help="--publish registry directory (default: REPRO_RULES_DIR, "
        "then <REPRO_SERVICE_DIR>/rules)",
    )

    delta = subparsers.add_parser(
        "delta",
        help="incremental matching demo: cold run, random source delta, "
        "then link_diff re-scoring only the affected candidates",
    )
    delta.add_argument("dataset", choices=DATASET_NAMES)
    delta.add_argument(
        "--upserts", type=int, default=10,
        help="entities to revise/insert per side (default 10)",
    )
    delta.add_argument(
        "--deletes", type=int, default=5,
        help="entities to delete per side (default 5)",
    )
    delta.add_argument(
        "--verify", action="store_true",
        help="also cold-rerun over rebuilt sources and assert the "
        "incremental links are byte-identical",
    )

    def add_service_arguments(sub: argparse.ArgumentParser) -> None:
        sub.add_argument(
            "--service-dir",
            default=None,
            metavar="PATH",
            help="service directory holding job records, queue tickets "
            "and worker heartbeats (default: the REPRO_SERVICE_DIR "
            "environment variable)",
        )
        sub.add_argument(
            "--queue",
            default=None,
            choices=("file", "inline"),
            help="queue backend: file (atomic-rename tickets, the "
            "default) or inline (execute submissions in-process). "
            "Default: the REPRO_SERVICE_QUEUE environment variable",
        )
        sub.add_argument(
            "--rules-dir",
            default=None,
            metavar="PATH",
            help="rule registry directory jobs resolve --rule "
            "references from (default: REPRO_RULES_DIR, then "
            "<service dir>/rules)",
        )

    serve = subparsers.add_parser(
        "serve",
        help="run queue workers over a service directory "
        "(linkage-as-a-service)",
    )
    add_service_arguments(serve)
    serve.add_argument(
        "--service-workers",
        type=int,
        default=2,
        metavar="N",
        help="worker processes to run (default 2); all share the "
        "--cache-dir column store",
    )
    serve.add_argument(
        "--drain",
        action="store_true",
        help="exit once the queue is empty instead of serving forever",
    )
    serve.add_argument(
        "--lease",
        type=float,
        default=30.0,
        help="seconds without a heartbeat before a running job's claim "
        "is considered lost and retried (default 30)",
    )

    submit = subparsers.add_parser(
        "submit", help="submit a job to a service directory"
    )
    add_service_arguments(submit)
    submit.add_argument(
        "dataset", nargs="?", choices=DATASET_NAMES,
        help="bundled dataset to link (omit for --parent delta jobs)",
    )
    submit.add_argument(
        "--scale", type=float, default=1.0,
        help="dataset scale factor (default 1.0)",
    )
    submit.add_argument(
        "--rule-json", default=None, metavar="PATH",
        help="JSON rule to execute (default: the dataset's gate rule)",
    )
    submit.add_argument(
        "--rule", default=None, metavar="REF",
        help="registry reference to execute "
        "(tenant/scenario/name[@vN|@active]); resolved and pinned at "
        "submission time. Mutually exclusive with --rule-json",
    )
    submit.add_argument(
        "--learn", action="store_true",
        help="learn a rule with GenLink before executing it",
    )
    submit.add_argument(
        "--publish", default=None, metavar="REF",
        help="--learn jobs: publish the learned rule into this "
        "registry lineage (tenant/scenario/name)",
    )
    submit.add_argument(
        "--population", type=int, default=20,
        help="--learn population size (default 20)",
    )
    submit.add_argument(
        "--iterations", type=int, default=5,
        help="--learn iteration budget (default 5)",
    )
    submit.add_argument(
        "--parent", default=None, metavar="JOB",
        help="submit a delta job against this succeeded job's links",
    )
    submit.add_argument(
        "--upserts", type=int, default=10,
        help="delta jobs: entities to revise/insert per side (default 10)",
    )
    submit.add_argument(
        "--deletes", type=int, default=5,
        help="delta jobs: entities to delete per side (default 5)",
    )
    submit.add_argument(
        "--deadline", type=float, default=None, metavar="SECONDS",
        help="per-attempt wall-clock budget; an exceeded budget fails "
        "the job terminally with error=deadline (default: the "
        "REPRO_JOB_DEADLINE environment variable, else unbounded)",
    )
    submit.add_argument(
        "--wait", action="store_true",
        help="block until the job reaches a terminal state",
    )
    submit.add_argument(
        "--timeout", type=float, default=600.0,
        help="--wait budget in seconds (default 600)",
    )

    status = subparsers.add_parser(
        "status", help="job states and per-job MatchStats of a service"
    )
    add_service_arguments(status)
    status.add_argument(
        "job_id", nargs="?", default=None,
        help="job to inspect (omit for a table of every job)",
    )

    cancel = subparsers.add_parser(
        "cancel",
        help="cancel a queued job immediately or flag a running job "
        "for cooperative cancellation",
    )
    add_service_arguments(cancel)
    cancel.add_argument("job_id", help="job to cancel")

    links = subparsers.add_parser(
        "links", help="print a job's generated links"
    )
    add_service_arguments(links)
    links.add_argument(
        "target",
        help="job id — or, with --direct, a dataset name",
    )
    links.add_argument(
        "--direct", action="store_true",
        help="bypass the service: execute the dataset's gate rule "
        "in-process and print links in the identical format (for "
        "byte-parity checks against a service job)",
    )
    links.add_argument(
        "--scale", type=float, default=1.0,
        help="--direct dataset scale factor (default 1.0)",
    )
    links.add_argument(
        "--rule", default=None, metavar="REF",
        help="--direct: execute this registry reference instead of the "
        "dataset's gate rule",
    )

    health = subparsers.add_parser(
        "health", help="queue/store/worker health snapshot of a service"
    )
    add_service_arguments(health)

    rules = subparsers.add_parser(
        "rules",
        help="manage the multi-tenant rule registry (versioned "
        "lineages, activation, schema migration)",
    )
    rules.add_argument(
        "--rules-dir",
        default=None,
        metavar="PATH",
        help="registry directory (default: REPRO_RULES_DIR, then "
        "<REPRO_SERVICE_DIR>/rules)",
    )
    rules_sub = rules.add_subparsers(dest="rules_command", required=True)
    rules_publish = rules_sub.add_parser(
        "publish", help="publish a rule as a lineage's next version"
    )
    rules_publish.add_argument(
        "ref", help="lineage to publish into (tenant/scenario/name)"
    )
    rules_publish.add_argument(
        "--from-json", default=None, metavar="PATH",
        help="JSON rule file to publish",
    )
    rules_publish.add_argument(
        "--dataset", default=None, choices=DATASET_NAMES,
        help="publish the dataset's gate rule instead of a file",
    )
    rules_publish.add_argument(
        "--activate", action="store_true",
        help="also point the lineage's @active at the new version",
    )
    rules_list = rules_sub.add_parser(
        "list", help="table of lineages, version counts and activations"
    )
    rules_list.add_argument(
        "prefix", nargs="?", default=None,
        help="optional tenant[/scenario] filter",
    )
    rules_show = rules_sub.add_parser(
        "show", help="one version's hash, provenance and rendered tree"
    )
    rules_show.add_argument("ref", help="tenant/scenario/name[@vN|@active]")
    rules_activate = rules_sub.add_parser(
        "activate", help="point a lineage's @active at a pinned version"
    )
    rules_activate.add_argument("ref", help="tenant/scenario/name@vN")
    rules_diff = rules_sub.add_parser(
        "diff", help="structural diff between two stored versions"
    )
    rules_diff.add_argument("ref_a")
    rules_diff.add_argument("ref_b")
    rules_migrate = rules_sub.add_parser(
        "migrate",
        help="re-validate a stored version against a dataset's live "
        "schema; exits nonzero on gaps with the per-node report",
    )
    rules_migrate.add_argument("ref", help="tenant/scenario/name[@vN|@active]")
    rules_migrate.add_argument(
        "--dataset", required=True, choices=DATASET_NAMES,
        help="dataset whose schemas to check against",
    )
    rules_migrate.add_argument(
        "--scale", type=float, default=1.0,
        help="dataset scale factor (default 1.0)",
    )
    rules_migrate.add_argument(
        "--check", action="store_true",
        help="report-only gate: exit 1 when gaps exist (the default "
        "behaviour without --apply, spelled out for CI legs)",
    )
    rules_migrate.add_argument(
        "--apply", action="store_true",
        help="publish the auto-patched rule as the lineage's next "
        "version (provenance records the gaps, edits and diff)",
    )

    cache = subparsers.add_parser(
        "cache",
        help="inspect / garbage-collect / clear the persistent "
        "distance-column store",
    )
    cache.add_argument("action", choices=("info", "gc", "clear"))
    cache.add_argument(
        "--max-age-days",
        type=float,
        default=None,
        help="gc: drop columns not used within this many days",
    )
    cache.add_argument(
        "--max-bytes",
        type=int,
        default=None,
        help="gc: drop least-recently-used columns until the store "
        "fits this byte budget",
    )

    args = parser.parse_args(argv)
    if args.workers is not None:
        # Validate eagerly for a clean CLI error, then hand the spec to
        # every engine session created below via the environment.
        try:
            parse_workers_spec(args.workers)
        except ValueError as error:
            parser.error(str(error))
        os.environ[WORKERS_ENV] = args.workers
    if args.cache_dir is not None:
        # Hand the cache dir to every engine session created below (and
        # to process-pool workers, which inherit the environment).
        os.environ[CACHE_ENV] = args.cache_dir
    if args.blocker is not None:
        # Same pattern: every matching engine created below (and in
        # worker processes) resolves its default blocker from this.
        os.environ[BLOCKER_ENV] = args.blocker
    service_handlers = {
        "serve": _serve,
        "submit": _submit,
        "status": _status,
        "cancel": _cancel,
        "links": _links_cmd,
        "health": _health,
        "rules": _rules_cmd,
    }
    if args.command == "cache":
        _cache_maintenance(args)
        return 0
    if args.command in service_handlers:
        # Service commands keep stdout machine-readable (job ids, link
        # triples, health JSON) — no scale/cache banners.
        service_handlers[args.command](args)
        return 0
    print(f"[scale: {current_scale().name}]")
    workers_spec = os.environ.get(WORKERS_ENV, "")
    if workers_spec:
        print(f"[workers: {workers_spec}]")
    cache_spec = os.environ.get(CACHE_ENV, "")
    if cache_spec:
        print(f"[cache: {cache_spec}]")
    blocker_spec = os.environ.get(BLOCKER_ENV, "")
    if blocker_spec:
        print(f"[blocker: {blocker_spec}]")
    handlers = {
        "datasets": _print_dataset_statistics,
        "curve": _print_learning_curve,
        "representations": _print_representations,
        "seeding": _print_seeding,
        "crossover": _print_crossover,
        "learn": _learn_rule,
        "delta": _run_delta,
    }
    handlers[args.command](args)
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
