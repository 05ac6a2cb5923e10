"""Sweep every registered metric over the 25 traces, whole and chunked.

For each paper workload, every metric in the registry is evaluated with
the batch engine (the one-chunk fold over the whole trace) and the
streaming engine (a fold over small chunks, O(1) float state).  The two
values must be **equal** -- ``==`` on floats, the metric layer's
exactness contract -- and the batch values are digested to a canonical
JSON fingerprint, so CI can additionally assert the digest is invariant
across ``PYTHONHASHSEED`` values and across runs::

    PYTHONHASHSEED=0 PYTHONPATH=src python tools/metrics_parity.py --out seed0.json
    PYTHONHASHSEED=1 PYTHONPATH=src python tools/metrics_parity.py --out seed1.json
    cmp seed0.json seed1.json

Exit code is non-zero on any engine divergence.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import sys
import time

#: Rows per chunk for the streaming sweep: small enough that every trace
#: crosses many chunk boundaries (the hard part of the contract).
CHUNK_ROWS = 257


def _jsonable(value):
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        return {k: _jsonable(v) for k, v in dataclasses.asdict(value).items()}
    if isinstance(value, dict):
        return {str(k): _jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    return value


def sweep(num_requests: int = 700, seed: int = 7) -> dict:
    """Per-trace digests of the batch values; asserts engine parity."""
    from repro.metrics import all_metrics, chunked, fold_chunks
    from repro.workloads import ALL_TRACES, generate_trace

    metrics = all_metrics()
    digests = {}
    divergences = 0
    for app in ALL_TRACES:
        trace = generate_trace(app, seed=seed, num_requests=num_requests)
        columns = trace.columns()
        batch = fold_chunks(metrics, [columns], trace.name)
        streamed = fold_chunks(
            metrics, chunked(columns, CHUNK_ROWS), trace.name, collapse=True
        )
        for metric in metrics:
            if batch[metric.name] != streamed[metric.name]:
                divergences += 1
                print(
                    f"DIVERGENCE: {app} / {metric.name}: "
                    f"batch={batch[metric.name]!r} streaming={streamed[metric.name]!r}",
                    file=sys.stderr,
                )
        payload = json.dumps(
            {name: _jsonable(value) for name, value in batch.items()},
            sort_keys=True,
        )
        digests[app] = hashlib.sha256(payload.encode("utf-8")).hexdigest()
    if divergences:
        raise SystemExit(f"{divergences} engine divergence(s) -- see stderr")
    return digests


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out", help="write per-trace digests to this JSON file")
    parser.add_argument("--requests", type=int, default=700,
                        help="requests per generated trace (default 700)")
    parser.add_argument("--seed", type=int, default=7)
    args = parser.parse_args(argv)
    started = time.time()
    digests = sweep(num_requests=args.requests, seed=args.seed)
    payload = json.dumps(digests, indent=2, sort_keys=True)
    if args.out:
        with open(args.out, "w") as handle:
            handle.write(payload + "\n")
    else:
        print(payload)
    print(
        f"[{len(digests)} traces x whole and chunked folds: parity OK "
        f"in {time.time() - started:.1f}s]",
        file=sys.stderr,
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
