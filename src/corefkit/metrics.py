"""Coreference evaluation: the LEA metric and the pronoun score.

LEA weighs every entity by its size and scores the fraction of its
coreference links that the other side reproduces. Singleton entities
count through a self-link: a singleton resolves to 1 exactly when some
entity on the other side contains its mention. Passing
``ignore_singletons`` drops size-1 entities from both sides instead.

The pronoun score asks, for each counted pronoun token that is itself a
single-token gold mention with at least one gold antecedent, whether the
predicted clustering ties it to at least one of those gold antecedents.
The first mention of a cluster is never counted, and a pronoun whose
token is no gold mention at all is excluded but reported.
"""
from __future__ import annotations

import statistics
from dataclasses import dataclass, field
from typing import Callable, Sequence

from corefkit.errors import AlignmentError
from corefkit.model import Corpus, Document, MentionSpan, Token
from corefkit.transform import (ClassifierConfig, DEFAULT_CLASSIFIER_CONFIG,
                                classify_pronoun)

__all__ = [
    "LeaScore",
    "PronounScoreResult",
    "EvalReport",
    "MetricSummary",
    "AggregateReport",
    "lea",
    "pronoun_score",
    "evaluate",
    "aggregate",
    "format_report",
    "report_keyvalues",
]

@dataclass(frozen=True)
class LeaScore:
    precision: float
    recall: float
    f1: float


@dataclass(frozen=True)
class PronounScoreResult:
    """Pronoun resolution outcome.

    ``score`` is a percentage, or None when no pronoun was counted.
    ``per_form`` maps each lowercased pronoun form to its
    ``(resolved, total)`` pair. ``non_mention`` counts pronoun tokens
    skipped because they are no single-token gold mention.
    """

    score: float | None
    resolved: int
    total: int
    per_form: dict[str, tuple[int, int]] = field(default_factory=dict)
    non_mention: int = 0
    first_mentions: int = 0


@dataclass(frozen=True)
class EvalReport:
    lea: LeaScore
    pronouns: PronounScoreResult
    documents: int


@dataclass(frozen=True)
class MetricSummary:
    mean: float
    std: float
    n: int


@dataclass(frozen=True)
class AggregateReport:
    runs: int
    lea_precision: MetricSummary
    lea_recall: MetricSummary
    lea_f1: MetricSummary
    pronoun_score: MetricSummary | None


def _entity_sets(document: Document,
                 ignore_singletons: bool) -> list[Sequence[MentionSpan]]:
    return [c.mentions for c in document.clusters
            if len(c.mentions) >= 2 or not ignore_singletons]


def _resolution_sums(entities_a: list[list[int]],
                     entities_b: list[list[int]]) -> tuple[float, int]:
    """Size-weighted LEA resolution of side A against side B.

    Entities are lists of interned mention ids. For each entity ``a``
    the resolution is ``sum_b C(|a & b|, 2) / C(|a|, 2)``; a singleton
    resolves to 1 when any B entity contains its mention (self-link
    convention). Returns ``(sum_a |a| * resolution(a), sum_a |a|)``, the
    numerator and denominator of the corresponding precision or recall.
    """
    membership: dict[int, list[int]] = {}
    for j, entity in enumerate(entities_b):
        for mention in entity:
            membership.setdefault(mention, []).append(j)

    numerator = 0.0
    denominator = 0
    overlap: dict[int, int] = {}
    for entity in entities_a:
        size = len(entity)
        denominator += size
        overlap.clear()
        for mention in entity:
            for j in membership.get(mention, ()):
                overlap[j] = overlap.get(j, 0) + 1
        if size == 1:
            resolution = 1.0 if overlap else 0.0
        else:
            common = 0
            for count in overlap.values():
                common += count * (count - 1) // 2
            resolution = common / (size * (size - 1) // 2)
        numerator += size * resolution
    return numerator, denominator


def _lea_sums(gold: Document, pred: Document,
              ignore_singletons: bool) -> tuple[float, int, float, int]:
    gold_sets = _entity_sets(gold, ignore_singletons)
    pred_sets = _entity_sets(pred, ignore_singletons)
    ids: dict[MentionSpan, int] = {}

    def interned(sets: list[Sequence[MentionSpan]]) -> list[list[int]]:
        return [[ids.setdefault(span, len(ids)) for span in entity]
                for entity in sets]

    gold_ids = interned(gold_sets)
    pred_ids = interned(pred_sets)
    recall_num, recall_den = _resolution_sums(gold_ids, pred_ids)
    prec_num, prec_den = _resolution_sums(pred_ids, gold_ids)
    return recall_num, recall_den, prec_num, prec_den


def _finish_lea(recall_num: float, recall_den: int,
                prec_num: float, prec_den: int) -> LeaScore:
    if recall_den == 0 and prec_den == 0:
        return LeaScore(1.0, 1.0, 1.0)
    recall = recall_num / recall_den if recall_den else 0.0
    precision = prec_num / prec_den if prec_den else 0.0
    if precision + recall == 0.0:
        return LeaScore(precision, recall, 0.0)
    return LeaScore(precision, recall,
                    2.0 * precision * recall / (precision + recall))


def lea(gold: Document, pred: Document,
        ignore_singletons: bool = False) -> LeaScore:
    """LEA precision, recall and F1 of one predicted document."""
    return _finish_lea(*_lea_sums(gold, pred, ignore_singletons))


def _check_same_grid(gold: Document, pred: Document) -> None:
    gold_shape = tuple(len(s) for s in gold.sentences)
    pred_shape = tuple(len(s) for s in pred.sentences)
    if gold_shape != pred_shape:
        raise AlignmentError(
            f"document {gold.id!r}: gold and prediction disagree on the "
            f"token grid ({gold_shape} vs {pred_shape})")


def _antecedent_hits(gold: Document,
                     pred: Document) -> dict[MentionSpan, bool | None]:
    """Pronoun-score outcome of every gold mention, in linear time.

    A span counts at its first position in the first gold cluster that
    lists it, and likewise on the predicted side. The value is None when
    nothing precedes that position (a first mention); otherwise it says
    whether the predicted antecedents share a span with the gold ones.
    Spans absent from the result are no gold mention.
    """
    # span -> [(predicted cluster, first position in it), ...], in
    # cluster order, so the first pair is the one the span is judged by
    pred_positions: dict[MentionSpan, list[tuple[int, int]]] = {}
    for q, cluster in enumerate(pred.clusters):
        for k, span in enumerate(cluster.mentions):
            positions = pred_positions.setdefault(span, [])
            if not positions or positions[-1][0] != q:
                positions.append((q, k))

    hits: dict[MentionSpan, bool | None] = {}
    for cluster in gold.clusters:
        # predicted cluster -> smallest position in it of a gold mention
        # seen so far in this gold cluster, i.e. of an antecedent
        lowest: dict[int, int] = {}
        for i, span in enumerate(cluster.mentions):
            positions = pred_positions.get(span, ())
            if span not in hits:
                if i == 0:
                    hits[span] = None
                elif positions:
                    q, j = positions[0]
                    hits[span] = lowest.get(q, j) < j
                else:
                    hits[span] = False
            for q, k in positions:
                if k < lowest.get(q, k + 1):
                    lowest[q] = k
    return hits


def pronoun_score(gold: Document, pred: Document,
                  is_counted: Callable[[Token], bool] | None = None,
                  config: ClassifierConfig = DEFAULT_CLASSIFIER_CONFIG
                  ) -> PronounScoreResult:
    """Score pronoun resolution of ``pred`` against ``gold``.

    ``is_counted`` decides which tokens are scored; the default counts
    every token the classifier recognises as a third-person singular
    pronoun. A counted pronoun is resolved when the predicted
    antecedents of its single-token mention share at least one span with
    its gold antecedents. Nesting is ignored: only the single-token
    mention of the pronoun itself is consulted. A span listed by several
    clusters is judged in the first of them.
    """
    _check_same_grid(gold, pred)
    if is_counted is None:
        is_counted = lambda token: classify_pronoun(token, config) is not None

    hits = _antecedent_hits(gold, pred)
    resolved = 0
    total = 0
    non_mention = 0
    first_mentions = 0
    per_form: dict[str, tuple[int, int]] = {}
    for sentence in gold.sentences:
        for token in sentence:
            if not is_counted(token):
                continue
            span = MentionSpan(token.sentence_index, token.token_index,
                               token.token_index)
            if span not in hits:
                non_mention += 1
                continue
            hit = hits[span]
            if hit is None:
                first_mentions += 1
                continue
            total += 1
            resolved += hit
            form = token.form.lower()
            old = per_form.get(form, (0, 0))
            per_form[form] = (old[0] + hit, old[1] + 1)

    score = 100.0 * resolved / total if total else None
    return PronounScoreResult(score, resolved, total, per_form,
                              non_mention, first_mentions)


def _pair_documents(gold: Corpus, pred: Corpus) -> list[tuple[Document, Document]]:
    gold_ids = {d.id for d in gold.documents}
    pred_index = {d.id: d for d in pred.documents}
    missing = [d.id for d in gold.documents if d.id not in pred_index]
    extra = [i for i in pred_index if i not in gold_ids]
    if missing or extra:
        parts = []
        if missing:
            parts.append(f"missing from prediction: {', '.join(missing)}")
        if extra:
            parts.append(f"unexpected in prediction: {', '.join(extra)}")
        raise AlignmentError("document ids do not align; " + "; ".join(parts))
    return [(d, pred_index[d.id]) for d in gold.documents]


def evaluate(gold: Corpus, pred: Corpus,
             is_counted: Callable[[Token], bool] | None = None,
             config: ClassifierConfig = DEFAULT_CLASSIFIER_CONFIG,
             ignore_singletons: bool = False,
             macro_pronouns: bool = False) -> EvalReport:
    """Score a predicted corpus against gold, document ids aligned.

    LEA is computed over the union of all documents' entities. Pronoun
    counts are pooled the same way by default; with ``macro_pronouns``
    the reported score is instead the unweighted mean of per-document
    scores (documents without counted pronouns are left out).
    """
    pairs = _pair_documents(gold, pred)
    sums = (0.0, 0, 0.0, 0)
    resolved = 0
    total = 0
    non_mention = 0
    first_mentions = 0
    per_form: dict[str, tuple[int, int]] = {}
    doc_scores: list[float] = []
    for gold_doc, pred_doc in pairs:
        _check_same_grid(gold_doc, pred_doc)
        part = _lea_sums(gold_doc, pred_doc, ignore_singletons)
        sums = tuple(a + b for a, b in zip(sums, part))
        outcome = pronoun_score(gold_doc, pred_doc, is_counted, config)
        resolved += outcome.resolved
        total += outcome.total
        non_mention += outcome.non_mention
        first_mentions += outcome.first_mentions
        for form, (hits, seen) in outcome.per_form.items():
            old = per_form.get(form, (0, 0))
            per_form[form] = (old[0] + hits, old[1] + seen)
        if outcome.score is not None:
            doc_scores.append(outcome.score)

    if macro_pronouns:
        score = statistics.fmean(doc_scores) if doc_scores else None
    else:
        score = 100.0 * resolved / total if total else None
    pronouns = PronounScoreResult(score, resolved, total, per_form,
                                  non_mention, first_mentions)
    return EvalReport(_finish_lea(*sums), pronouns, len(pairs))


def aggregate(reports: Sequence[EvalReport]) -> AggregateReport:
    """Mean and population standard deviation of scores across runs."""
    if not reports:
        raise ValueError("aggregate needs at least one report")

    def summary(values: list[float]) -> MetricSummary:
        return MetricSummary(statistics.fmean(values),
                             statistics.pstdev(values), len(values))

    pronoun_values = [r.pronouns.score for r in reports
                      if r.pronouns.score is not None]
    return AggregateReport(
        runs=len(reports),
        lea_precision=summary([r.lea.precision for r in reports]),
        lea_recall=summary([r.lea.recall for r in reports]),
        lea_f1=summary([r.lea.f1 for r in reports]),
        pronoun_score=summary(pronoun_values) if pronoun_values else None,
    )


def format_report(report: EvalReport) -> str:
    """Aligned two-column rendering of an evaluation report."""
    rows = [
        ("documents", str(report.documents)),
        ("lea precision", f"{report.lea.precision:.6f}"),
        ("lea recall", f"{report.lea.recall:.6f}"),
        ("lea f1", f"{report.lea.f1:.6f}"),
    ]
    pronouns = report.pronouns
    if pronouns.score is None:
        rows.append(("pronoun score", "undefined (no counted pronouns)"))
    else:
        rows.append(("pronoun score",
                     f"{pronouns.score:.2f}  "
                     f"(resolved {pronouns.resolved}/{pronouns.total})"))
    for form in sorted(pronouns.per_form):
        hits, seen = pronouns.per_form[form]
        rows.append((f"  {form}", f"{hits}/{seen}"))
    if pronouns.non_mention:
        rows.append(("pronouns outside gold mentions", str(pronouns.non_mention)))
    width = max(len(label) for label, _ in rows)
    return "\n".join(f"{label:<{width}}  {value}" for label, value in rows)


def report_keyvalues(report: EvalReport) -> str:
    """Machine-readable ``key=value`` block for an evaluation report."""
    pronouns = report.pronouns
    lines = [
        f"documents={report.documents}",
        f"lea_precision={report.lea.precision:.6f}",
        f"lea_recall={report.lea.recall:.6f}",
        f"lea_f1={report.lea.f1:.6f}",
        "pronoun_score=NA" if pronouns.score is None
        else f"pronoun_score={pronouns.score:.2f}",
        f"pronoun_resolved={pronouns.resolved}",
        f"pronoun_total={pronouns.total}",
        f"pronoun_non_mention={pronouns.non_mention}",
    ]
    for form in sorted(pronouns.per_form):
        hits, seen = pronouns.per_form[form]
        lines.append(f"pronoun_form_{form}={hits}/{seen}")
    return "\n".join(lines)
