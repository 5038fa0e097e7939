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

import math
from collections import Counter
from typing import TYPE_CHECKING, Sequence

from corefkit.conll import _GoldView, _PredictionView, _rows, _shape, _view
from corefkit.errors import AlignmentError, _Fresh, _value_type
from corefkit.transform import (ClassifierConfig, DEFAULT_CLASSIFIER_CONFIG,
                                _role_table)

if TYPE_CHECKING:
    from corefkit.model import Corpus, Document

__all__ = [
    "LeaScore",
    "PronounScoreResult",
    "EvalReport",
    "lea",
    "pronoun_score",
    "evaluate",
    "format_report",
    "report_keyvalues",
]

@_value_type
class LeaScore:
    precision: float
    recall: float
    f1: float


@_value_type
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
    per_form: dict[str, tuple[int, int]] = _Fresh(dict)
    non_mention: int = 0
    first_mentions: int = 0


@_value_type
class EvalReport:
    lea: LeaScore
    pronouns: PronounScoreResult
    documents: int


def _lea_sums(gold: _PredictionView, pred: _PredictionView,
              ignore_singletons: bool) -> tuple[float, int, float, int]:
    """LEA's recall and precision sums of one document's views, ``(recall
    numerator, recall denominator, precision numerator, precision
    denominator)``; a gold view serves as well.

    An entity is a sequence of mentions, each its ``_span_key``. The
    resolution of an entity ``a`` against the other side is ``sum_b C(|a
    & b|, 2) / C(|a|, 2)``, and a singleton resolves to 1 when any entity
    of the other side contains its mention (self-link convention). A
    side's numerator sums ``|a| * resolution(a)`` over its entities, in
    order, and its denominator ``|a|``.

    Both sides come from one pass over gold: each overlap ``|a & b|`` of
    a gold entity of two or more mentions, counted through the
    prediction's membership map, adds to the recall of ``a`` and to the
    precision of ``b``. A gold singleton adds to no precision, as ``|a &
    b|`` is then at most 1, unless ``b`` lists its mention twice; such
    mentions are counted once each, after the pass.
    """
    gold_entities, pred_entities = gold[2], pred[2]
    if ignore_singletons:
        gold_entities = [e for e in gold_entities if len(e) >= 2]
        pred_entities = [e for e in pred_entities if len(e) >= 2]
    # mention -> the predicted entities listing it, once per listing
    membership: dict[tuple[int, int, int], list[int]] = {}
    repeated = set()  # mentions some predicted entity lists twice
    for j, entity in enumerate(pred_entities):
        for mention in entity:
            held = membership.get(mention)
            if held is None:
                membership[mention] = [j]
            else:
                if held[-1] == j:
                    repeated.add(mention)
                held.append(j)

    # predicted entity -> sum over gold entities a of C(|a & b|, 2)
    links = [0] * len(pred_entities)
    gold_spans = set()
    singles: Counter = Counter()  # gold singletons of ``repeated`` mentions
    recall_num = 0.0
    recall_den = 0
    overlap: dict[int, int] = {}
    for entity in gold_entities:
        size = len(entity)
        recall_den += size
        if size == 1:
            mention = entity[0]
            gold_spans.add(mention)
            if mention in membership:
                recall_num += 1.0
                if mention in repeated:
                    singles[mention] += 1
            continue
        gold_spans.update(entity)
        overlap.clear()
        for mention in entity:
            for j in membership.get(mention, ()):
                overlap[j] = overlap.get(j, 0) + 1
        common = 0
        for j, count in overlap.items():
            if count > 1:
                pairs = count * (count - 1) // 2
                common += pairs
                links[j] += pairs
        recall_num += size * (common / (size * (size - 1) // 2))
    for mention, n in singles.items():
        for j, count in Counter(membership[mention]).items():
            links[j] += n * (count * (count - 1) // 2)

    prec_num = 0.0
    prec_den = 0
    for entity, common in zip(pred_entities, links):
        size = len(entity)
        prec_den += size
        if size == 1:
            if entity[0] in gold_spans:
                prec_num += 1.0
        else:
            prec_num += size * (common / (size * (size - 1) // 2))
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
    return _finish_lea(*_lea_sums(_view(_shape(gold)), _view(_shape(pred)),
                                  ignore_singletons))


def _check_same_grid(gold: _GoldView, pred: _PredictionView) -> None:
    if gold[1] != pred[1]:
        raise AlignmentError(
            f"document {gold[0]!r}: gold and prediction disagree on the "
            f"token grid ({gold[1]} vs {pred[1]})")


def _antecedent_hits(gold: _GoldView, pred: _PredictionView
                     ) -> dict[tuple[int, int, int], bool | None]:
    """Pronoun-score outcome of every gold mention, in linear time.

    A span counts at its first position in the first gold cluster that
    lists it, and likewise on the predicted side. The value is None when
    nothing precedes that position (a first mention); otherwise it says
    whether the predicted antecedents share a span with the gold ones.
    Spans are keyed by their ``_span_key`` tuple; spans absent from the
    result are no gold mention.
    """
    # span -> [(predicted cluster, first position in it), ...], in
    # cluster order, so the first pair is the one the span is judged by
    pred_positions: dict[tuple[int, int, int], list[tuple[int, int]]] = {}
    for q, cluster in enumerate(pred[2]):
        for k, span in enumerate(cluster):
            positions = pred_positions.setdefault(span, [])
            if not positions or positions[-1][0] != q:
                positions.append((q, k))

    hits: dict[tuple[int, int, int], bool | None] = {}
    for cluster in gold[2]:
        # predicted cluster -> smallest position in it of a gold mention
        # seen so far in this gold cluster, i.e. of an antecedent
        lowest: dict[int, int] = {}
        last = len(cluster) - 1
        for i, span in enumerate(cluster):
            positions = pred_positions.get(span, ())
            if span not in hits:
                if i == 0:
                    hits[span] = None
                elif positions:
                    q, j = positions[0]
                    hits[span] = lowest.get(q, j) < j
                else:
                    hits[span] = False
            if i == last:
                break  # no mention follows to read ``lowest``
            for q, k in positions:
                if k < lowest.get(q, k + 1):
                    lowest[q] = k
    return hits


def pronoun_score(gold: Document, pred: Document,
                  config: ClassifierConfig = DEFAULT_CLASSIFIER_CONFIG
                  ) -> PronounScoreResult:
    """Score pronoun resolution of ``pred`` against ``gold``.

    Every token that ``config`` classifies as a third-person singular
    pronoun is counted. A counted pronoun is resolved when the predicted
    antecedents of its single-token mention share at least one span with
    its gold antecedents. Nesting is ignored: only the single-token
    mention of the pronoun itself is consulted. A span listed by several
    clusters is judged in the first of them.
    """
    return _pronoun_outcome([(_view(_rows(gold), _role_table(config)),
                              _view(_shape(pred)))])


def _pronoun_outcome(pairs: Sequence[tuple[_GoldView, _PredictionView]],
                     macro: bool = False) -> PronounScoreResult:
    """The pronoun score of ``(gold view, prediction view)`` pairs, the
    one tally behind :func:`pronoun_score`, :func:`evaluate` and ``score``.

    Counts are pooled over the pairs. With ``macro`` the score is
    instead the unweighted mean of the per-pair scores, pairs without
    counted pronouns left out. Each pair's token grids are checked
    before its pronouns are counted.
    """
    resolved = 0
    total = 0
    non_mention = 0
    first_mentions = 0
    per_form: dict[str, tuple[int, int]] = {}
    doc_scores: list[float] = []
    for gold, pred in pairs:
        _check_same_grid(gold, pred)
        hits = _antecedent_hits(gold, pred)
        doc_resolved = resolved
        doc_total = total
        for sentence, token, form in gold[3]:
            key = (sentence, token, token)
            if key not in hits:
                non_mention += 1
                continue
            hit = hits[key]
            if hit is None:
                first_mentions += 1
                continue
            total += 1
            resolved += hit
            old = per_form.get(form, (0, 0))
            per_form[form] = (old[0] + hit, old[1] + 1)
        if total > doc_total:
            doc_scores.append(
                100.0 * (resolved - doc_resolved) / (total - doc_total))

    if macro:
        # What ``statistics.fmean`` computes for a list.
        score = math.fsum(doc_scores) / len(doc_scores) if doc_scores else None
    else:
        score = 100.0 * resolved / total if total else None
    return PronounScoreResult(score, resolved, total, per_form,
                              non_mention, first_mentions)


def _pair_documents(gold: Sequence[_GoldView], pred: Sequence[_PredictionView]
                    ) -> list[tuple[_GoldView, _PredictionView]]:
    gold_ids = {view[0] for view in gold}
    pred_index = {view[0]: view for view in pred}
    missing = [view[0] for view in gold if view[0] not in pred_index]
    extra = [i for i in pred_index if i not in gold_ids]
    if missing or extra:
        parts = []
        if missing:
            parts.append(f"missing from prediction: {', '.join(missing)}")
        if extra:
            parts.append(f"unexpected in prediction: {', '.join(extra)}")
        raise AlignmentError("document ids do not align; " + "; ".join(parts))
    return [(view, pred_index[view[0]]) for view in gold]


def evaluate(gold: Corpus, pred: Corpus,
             config: ClassifierConfig = DEFAULT_CLASSIFIER_CONFIG,
             ignore_singletons: bool = False,
             macro_pronouns: bool = False) -> EvalReport:
    """Score a predicted corpus against gold, document ids aligned.

    LEA is computed over the union of all documents' entities. Pronoun
    counts are pooled the same way by default; with ``macro_pronouns``
    the reported score is instead the unweighted mean of per-document
    scores (documents without counted pronouns are left out).
    """
    roles = _role_table(config)  # one table for every document
    return _evaluate_views([_view(_rows(d), roles) for d in gold.documents],
                           [_view(_shape(d)) for d in pred.documents],
                           ignore_singletons, macro_pronouns)


def _evaluate_views(gold: Sequence[_GoldView], pred: Sequence[_PredictionView],
                    ignore_singletons: bool, macro_pronouns: bool
                    ) -> EvalReport:
    """:func:`evaluate` of views, in corpus order on each side, as
    ``score`` builds them from the rows it reads."""
    pairs = _pair_documents(gold, pred)
    pronouns = _pronoun_outcome(pairs, macro_pronouns)
    sums = (0.0, 0, 0.0, 0)
    for gold_view, pred_view in pairs:
        part = _lea_sums(gold_view, pred_view, ignore_singletons)
        sums = tuple(a + b for a, b in zip(sums, part))
    return EvalReport(_finish_lea(*sums), pronouns, len(pairs))


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
