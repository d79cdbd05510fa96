"""Answer checks: what makes an operation count as failed.

Two tiers.  Every timed operation gets the cheap checks (it returned,
``len <= k``, distinct rows, not degraded, no Theorem 2 / single-scan
violation flag, the write was acknowledged with the expected rid).  After
the timed window an untimed sample of the latest ``SAMPLE`` distinct reads
is re-issued and held against the unsharded array ``DiversityEngine`` over
the same write history (answers must be bit-identical: same rids, Dewey
IDs and scores, in order); the first ``DEFINITION_SAMPLE`` of them are
also held against Definitions 1-2 themselves (``is_diverse`` /
``is_scored_diverse`` over the full-scan result set, ~300 ms a query at
30 000 rows, which is what caps that sample).  The durable workload
additionally restarts from its data directory and looks for every
acknowledged write.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List

from repro.core.engine import DiversityEngine
from repro.core.similarity import is_diverse, is_scored_diverse
from repro.data.autos import autos_ordering
from repro.query.evaluate import res, scored_res
from repro.serving import ServingEngine

from workloads import INSERT, EngineDeployment, clone_relation

SAMPLE = 50
DEFINITION_SAMPLE = 6


def cheap_read_check(deployment, op, raw, recorder) -> bool:
    """The per-operation tier; also feeds the recorder's layer counters."""
    answer = deployment.answer(raw)
    if not answer.ok:
        recorder.non200 += 1
        return False
    recorder.by_algorithm[answer.algorithm] = (
        recorder.by_algorithm.get(answer.algorithm, 0) + 1)
    recorder.probe_violations += answer.probe_violation
    recorder.scan_violations += answer.scan_violation
    recorder.degraded += answer.degraded
    return (
        len(answer.rids) <= op.k
        and len(set(answer.rids)) == len(answer.rids)
        and not answer.degraded
        and not answer.probe_violation
        and not answer.scan_violation
    )


@dataclass
class Verdict:
    attempted: int = 0
    failed: int = 0
    lost_acked_writes: int = 0
    problems: List[str] = field(default_factory=list)

    @property
    def correct(self) -> bool:
        return self.failed == 0 and self.lost_acked_writes == 0

    def fail(self, message: str) -> None:
        self.failed += 1
        if len(self.problems) < 10:
            self.problems.append(message)


def build_reference(run) -> DiversityEngine:
    """The oracle engine: unsharded, array backend, no cache, brought to the
    deployment's state by replaying the writes it acknowledged (a fresh
    build over the final rows could number Dewey siblings differently).

    The durable workload acknowledges ~2 000 writes a second, too many to
    replay inside the run's time budget; its oracle is a bare engine over
    the store's own in-memory index, which still shows that cache, WAL
    wrapper and a restart leave answers untouched, while the acknowledged
    writes and Definitions 1-2 are checked against the relation directly.
    """
    if run.workload.durable:
        return DiversityEngine(run.deployment.index.index)
    writes = run.recorder.writes
    relation = clone_relation(run.pristine) if writes else run.pristine
    reference = DiversityEngine.from_relation(relation, autos_ordering())
    for op in writes:
        if op.kind == INSERT:
            reference.insert(op.row)
        else:
            reference.delete(op.rid)
    return reference


def sample_reads(recorder) -> list:
    """The latest ``SAMPLE`` distinct reads, newest first."""
    chosen, seen = [], set()
    for op in reversed(recorder.recent_reads):
        key = op.fingerprint()
        if key not in seen:
            seen.add(key)
            chosen.append(op)
            if len(chosen) == SAMPLE:
                break
    return chosen


def check_against_oracles(deployment, reference, ops, verdict, label,
                          definitions: int = DEFINITION_SAMPLE) -> None:
    relation = reference.relation
    dewey_of = reference.index.dewey.dewey_of
    for position, op in enumerate(ops):
        verdict.attempted += 1
        try:
            answer = deployment.answer(deployment.search(op))
        except Exception as error:  # the op failed: that is the finding
            verdict.fail(f"{label}: {op.text!r} raised {error!r}")
            continue
        if not answer.ok:
            verdict.fail(f"{label}: {op.text!r} was refused")
            continue
        algorithm = answer.algorithm if op.algorithm == "auto" else op.algorithm
        expected = reference.search(op.text, op.k, algorithm=algorithm,
                                    scored=op.scored)
        if (answer.rids != expected.rids or answer.deweys != expected.deweys
                or answer.scores != expected.scores):
            verdict.fail(f"{label}: {op.text!r} k={op.k} {algorithm} differs "
                         f"from the unsharded engine")
            continue
        if position >= definitions:
            continue
        if op.scored:
            universe = {dewey_of(rid): score
                        for rid, score in scored_res(relation, op.query)}
            diverse = is_scored_diverse(answer.deweys, universe, op.k)
        else:
            universe = [dewey_of(rid) for rid in res(relation, op.query)]
            diverse = is_diverse(answer.deweys, universe, op.k)
        if not diverse:
            verdict.fail(f"{label}: {op.text!r} k={op.k} {algorithm} is not "
                         f"a diverse result set")


def check_acknowledged_writes(deployment, writes, verdict) -> None:
    """Every acknowledged insert is stored and indexed, every acknowledged
    delete is gone (the latest write to a rid decides)."""
    final = {}
    for op in writes:
        final[op.rid] = op
    relation = deployment.index.relation
    dewey = deployment.index.dewey
    for rid, op in final.items():
        verdict.attempted += 1
        if op.kind == INSERT:
            kept = (rid < len(relation) and not relation.is_deleted(rid)
                    and rid in dewey and tuple(relation[rid]) == tuple(op.row))
        else:
            kept = relation.is_deleted(rid) and rid not in dewey
        if not kept:
            verdict.lost_acked_writes += 1
            verdict.fail(f"restart lost acknowledged {op.kind} of rid {rid}")


def verify(run) -> Verdict:
    """The untimed tier, run once after the timed window."""
    verdict = Verdict()
    reference = build_reference(run)
    ops = sample_reads(run.recorder)
    check_against_oracles(run.deployment, reference, ops, verdict, "live")
    if run.workload.durable:
        run.deployment.close()
        run.deployment = EngineDeployment(ServingEngine.recover(run.data_dir))
        check_acknowledged_writes(run.deployment, run.recorder.writes, verdict)
        check_against_oracles(run.deployment, reference, ops, verdict,
                              "restarted", definitions=0)
    return verdict
