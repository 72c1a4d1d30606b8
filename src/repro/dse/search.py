"""Exploration strategies over a design space.

Three strategies share the same runner and cache, so they compose:
an exhaustive grid primes the cache, a later hill-climb walks it for
free, and a random probe of a bigger space costs only its sample.

* :func:`exhaustive_search` — evaluate the full grid;
* :func:`random_search` — a seeded uniform sample without
  replacement;
* :func:`hill_climb` — greedy steepest-descent over one-step
  neighbourhoods (adjacent values along each dimension), with
  seeded multi-restart.

Every strategy minimises a weighted scalarisation of the requested
objectives and returns the full evaluation trace, so callers can
still extract a Pareto frontier from whatever the search touched.

Invariants
----------
* Strategies are deterministic in their ``seed`` (the underlying
  flow is deterministic, sampling and restarts are seeded).
* ``SearchResult.records`` contains every record the strategy
  evaluated — the best point is always among them, and extracting a
  frontier from the trace is always legal.
* The hill-climb freezes objective scales on its first batch, so one
  climb's scores are mutually comparable across steps and restarts.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping, Sequence

from repro.dse.pareto import (
    DEFAULT_OBJECTIVES,
    best_record,
    objective_value,
)
from repro.dse.runner import (
    FrontendMemo,
    SweepStats,
    _resolve_cache,
    run_sweep,
)
from repro.dse.space import DesignPoint, DesignSpace

#: Extra seeded start samples a hill-climb restart may draw when its
#: start point is infeasible, before giving the restart up.
MAX_START_RESAMPLES = 8
#: Seed offset between successive resamples of one restart — large
#: enough that attempt seeds never collide with other restarts'
#: ``seed + restart`` base seeds for any sane restart count.
_RESAMPLE_SEED_STRIDE = 100_003


@dataclass
class SearchResult:
    """Everything one strategy run touched and concluded."""

    strategy: str
    best: dict | None
    records: list = field(default_factory=list)
    history: list = field(default_factory=list)
    stats: SweepStats = field(default_factory=SweepStats)

    def summary(self) -> str:
        lines = [f"{self.strategy}: {self.stats.summary()}"]
        if self.best is not None:
            metrics = self.best["metrics"]
            lines.append(
                f"best: {DesignPoint.from_dict(self.best['point']).label()}"
                f"  cycles={metrics['cycles']}"
                f"  energy={metrics['energy']}")
        else:
            lines.append("best: (no feasible point)")
        return "\n".join(lines)


def _merge_stats(total: SweepStats, part: SweepStats) -> None:
    total.total += part.total
    total.unique += part.unique
    total.cached += part.cached
    total.evaluated += part.evaluated
    total.failed += part.failed
    total.workers = max(total.workers, part.workers)
    total.elapsed += part.elapsed


def _sweep_search(strategy: str, source: str,
                  points: Sequence[DesignPoint],
                  objectives: Sequence[str],
                  weights: Mapping[str, float] | None,
                  **run_kwargs) -> SearchResult:
    result = run_sweep(source, points, **run_kwargs)
    best = best_record(result.records, objectives, weights)
    return SearchResult(strategy=strategy, best=best,
                        records=result.records, stats=result.stats)


def exhaustive_search(source: str, space: DesignSpace, *,
                      objectives: Sequence[str] = DEFAULT_OBJECTIVES,
                      weights: Mapping[str, float] | None = None,
                      **run_kwargs) -> SearchResult:
    """Evaluate every point of the grid and pick the scalar best."""
    return _sweep_search("exhaustive", source, space.grid(),
                         objectives, weights, **run_kwargs)


def random_search(source: str, space: DesignSpace, *,
                  n_samples: int = 32, seed: int = 0,
                  objectives: Sequence[str] = DEFAULT_OBJECTIVES,
                  weights: Mapping[str, float] | None = None,
                  **run_kwargs) -> SearchResult:
    """Evaluate a seeded uniform sample of the grid."""
    points = space.sample(n_samples, seed=seed)
    return _sweep_search("random", source, points,
                         objectives, weights, **run_kwargs)


def hill_climb(source: str, space: DesignSpace, *,
               start: DesignPoint | None = None,
               seed: int = 0, max_steps: int = 32, restarts: int = 1,
               objectives: Sequence[str] = DEFAULT_OBJECTIVES,
               weights: Mapping[str, float] | None = None,
               **run_kwargs) -> SearchResult:
    """Greedy steepest-descent over one-step neighbourhoods.

    Objective scales are frozen on the first evaluated batch so the
    scalarisation stays consistent across the whole climb; revisited
    points are served from an in-memory trace (and the shared on-disk
    cache, when one is passed through *run_kwargs*).
    """
    weights = dict(weights or {})
    run_kwargs["cache"] = _resolve_cache(run_kwargs.get("cache"))
    # Neighbourhood batches are tiny (a handful of points per step);
    # spinning a fresh pool up for each one costs more than the
    # mappings, so climbs default to in-process evaluation unless the
    # caller explicitly asks for a worker count (None means "pick a
    # default" here, not cpu_count as in run_sweep).
    if run_kwargs.get("workers") is None:
        run_kwargs["workers"] = 1
    # One frontend memo for the whole climb: every step's sweep is
    # over the same program, so each frontend compiles once.
    run_kwargs.setdefault("memo", FrontendMemo())
    seen: dict[str, dict] = {}
    stats = SweepStats()
    history: list[dict] = []
    scales: dict[str, float] = {}

    def evaluate(points: Sequence[DesignPoint]) -> list[dict]:
        fresh = []
        fresh_keys = set()
        for point in points:
            key = point.key()
            if key not in seen and key not in fresh_keys:
                fresh.append(point)
                fresh_keys.add(key)
        if fresh:
            sweep = run_sweep(source, fresh, **run_kwargs)
            _merge_stats(stats, sweep.stats)
            for point, record in zip(sweep.points, sweep.records):
                seen[point.key()] = record
        return [seen[point.key()] for point in points]

    def score(record: Mapping) -> float:
        if not scales:
            for name in objectives:
                scales[name] = max(
                    abs(objective_value(record, name)), 1.0)
        return sum(weights.get(name, 1.0) *
                   objective_value(record, name) / scales[name]
                   for name in objectives)

    best: dict | None = None
    best_score = float("inf")
    for restart in range(max(1, restarts)):
        # An infeasible sampled start must not burn the whole
        # restart: on a space with sparse feasibility, `restarts=3`
        # could otherwise do zero climbing.  Resample fresh seeded
        # starts (bounded, so a fully-infeasible space still
        # terminates); every attempt is deterministic in `seed`.
        current = None
        current_record = None
        for attempt in range(1 + MAX_START_RESAMPLES):
            if attempt == 0 and restart == 0 and start is not None:
                candidate = start
            else:
                candidate = space.random_point(
                    seed=seed + restart
                    + attempt * _RESAMPLE_SEED_STRIDE)
            record = evaluate([candidate])[0]
            if record["ok"]:
                current, current_record = candidate, record
                break
            history.append({"restart": restart, "step": 0,
                            "point": candidate.label(),
                            "score": None, "note": "infeasible start"})
        if current is None:
            continue
        current_score = score(current_record)
        history.append({"restart": restart, "step": 0,
                        "point": current.label(),
                        "score": round(current_score, 4)})
        for step in range(1, max_steps + 1):
            neighbours = space.neighbours(current)
            records = evaluate(neighbours)
            candidates = [
                (score(record), index)
                for index, record in enumerate(records)
                if record["ok"]]
            if not candidates:
                break
            neighbour_score, index = min(candidates)
            if neighbour_score >= current_score:
                break  # local optimum
            current = neighbours[index]
            current_record = records[index]
            current_score = neighbour_score
            history.append({"restart": restart, "step": step,
                            "point": current.label(),
                            "score": round(current_score, 4)})
        if current_score < best_score:
            best, best_score = current_record, current_score

    return SearchResult(strategy="hill-climb", best=best,
                        records=list(seen.values()),
                        history=history, stats=stats)


STRATEGIES = {
    "exhaustive": exhaustive_search,
    "random": random_search,
    "hill": hill_climb,
}
