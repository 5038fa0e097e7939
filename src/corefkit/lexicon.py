"""Pronoun paradigms and the gendered-noun rewrite lexicon.

A paradigm is a (subject, object, possessive) form triple. The registry
ships the two traditional Dutch third-person singular paradigms, the two
most common gender-neutral ones, and six neopronoun paradigms. The noun
lexicon maps gendered Dutch nouns to neutral alternatives; entries
flagged lossy drop some meaning (for example a specific family relation
becomes the generic "familielid").
"""
from __future__ import annotations

from typing import Iterable, Mapping, TextIO

from corefkit.errors import (LexiconFormatError, UnknownParadigmError,
                             _value_type)

__all__ = [
    "PronounParadigm",
    "RewriteEntry",
    "RewriteLexicon",
    "builtin_paradigms",
    "get_paradigm",
    "builtin_noun_lexicon",
    "load_noun_lexicon",
    "transfer_case",
    "NEOPRONOUN_NAMES",
    "GENDER_NEUTRAL_NAMES",
]


@_value_type
class PronounParadigm:
    """A pronoun set: one form each for subject, object and possessive use."""

    name: str
    subject_form: str
    object_form: str
    possessive_form: str

    def __post_init__(self):
        for attr in ("name", "subject_form", "object_form", "possessive_form"):
            value = getattr(self, attr)
            if not value:
                raise ValueError(f"paradigm {attr} must be non-empty")
            object.__setattr__(self, attr, value.lower())


_PARADIGMS = (
    PronounParadigm("hij", "hij", "hem", "zijn"),
    PronounParadigm("zij", "zij", "haar", "haar"),
    PronounParadigm("hen", "hen", "hen", "hun"),
    PronounParadigm("die", "die", "hen", "diens"),
    PronounParadigm("dee", "dee", "dem", "dijr"),
    PronounParadigm("dij", "dij", "dem", "dijr"),
    PronounParadigm("nij", "nij", "ner", "nijr"),
    PronounParadigm("vij", "vij", "vijn", "vijns"),
    PronounParadigm("zhij", "zhij", "zhaar", "zhaar"),
    PronounParadigm("zem", "zem", "zeer", "zeer"),
)
_PARADIGM_INDEX = {p.name: p for p in _PARADIGMS}

NEOPRONOUN_NAMES = ("dee", "dij", "nij", "vij", "zhij", "zem")
GENDER_NEUTRAL_NAMES = ("hen", "die")


def builtin_paradigms() -> tuple[PronounParadigm, ...]:
    """The fixed paradigm registry, traditional pronouns first."""
    return _PARADIGMS


def get_paradigm(name: str) -> PronounParadigm:
    """Look a paradigm up by name (case-insensitive)."""
    try:
        return _PARADIGM_INDEX[name.lower()]
    except KeyError:
        known = ", ".join(sorted(_PARADIGM_INDEX))
        raise UnknownParadigmError(
            f"unknown pronoun paradigm {name!r} (known: {known})") from None


@_value_type
class RewriteEntry:
    replacement: str
    lossy: bool


@_value_type
class RewriteLexicon:
    """Mapping from lowercase gendered noun form to its neutral rewrite."""

    entries: Mapping[str, RewriteEntry]

    def __len__(self) -> int:
        return len(self.entries)

    def __contains__(self, key: str) -> bool:
        return key in self.entries

    def get(self, key: str) -> RewriteEntry | None:
        return self.entries.get(key)


# (gendered form, neutral replacement, lossy?)
_BUILTIN_NOUN_ROWS: tuple[tuple[str, str, bool], ...] = (
    ("tante", "familielid", True),
    ("oom", "familielid", True),
    ("jongen", "kind", False),
    ("meisje", "kind", False),
    ("man", "persoon", False),
    ("vrouw", "persoon", False),
    ("mannen", "personen", False),
    ("vrouwen", "personen", False),
    ("broer", "familielid", True),
    ("zus", "familielid", True),
    ("broertje", "familielid", True),
    ("zusje", "familielid", True),
    ("broertjes", "familieleden", True),
    ("zusjes", "familieleden", True),
    ("broers", "familieleden", True),
    ("zussen", "familieleden", True),
    ("meid", "persoon", False),
    ("vader", "ouder", False),
    ("moeder", "ouder", False),
    ("vaders", "ouders", False),
    ("moeders", "ouders", False),
    ("zoon", "kind", False),
    ("zonen", "kinderen", False),
    ("dochter", "kind", False),
    ("dochters", "kinderen", False),
    ("nicht", "familielid", True),
    ("nichtje", "familielid", True),
    ("nichtjes", "familieleden", True),
    ("nichten", "familieleden", True),
    ("neef", "familielid", True),
    ("neefje", "familielid", True),
    ("neefjes", "familieleden", True),
    ("kleindochter", "kleinkind", False),
    ("kleinzoon", "kleinkind", False),
    ("kleindochters", "kleinkinderen", False),
    ("kleinzonen", "kleinkinderen", False),
    ("oma", "grootouder", False),
    ("opa", "grootouder", False),
    ("grootmoeder", "grootouder", False),
    ("grootvader", "grootouder", False),
    ("dame", "persoon", False),
    ("heer", "persoon", False),
    ("dames", "personen", False),
    ("heren", "personen", False),
    ("koning", "staatshoofd", False),
    ("koningin", "staatshoofd", False),
    ("koningen", "staatshoofden", False),
    ("koninginnen", "staatshoofden", False),
    ("mevrouw", "persoon", True),
    ("meneer", "persoon", True),
    ("jongedame", "jongere", True),
    ("jongeman", "jongere", True),
    ("politieman", "politieagent", False),
    ("politievrouw", "politieagent", False),
    ("brandweerman", "brandweermens", False),
    ("brandweervrouw", "brandweermens", False),
    ("prinses", "edele", True),
    ("prins", "edele", True),
    ("prinsessen", "edelen", True),
    ("prinsen", "edelen", True),
    ("kroonprins", "troonopvolger", False),
    ("kroonprinses", "troonopvolger", False),
    ("schrijver", "auteur", False),
    ("schrijfster", "auteur", False),
    ("juf", "leerkracht", False),
    ("meester", "leerkracht", False),
    ("leraar", "leerkracht", False),
    ("lerares", "leerkracht", False),
    ("bruid", "jonggehuwde", False),
    ("bruidegom", "jonggehuwde", False),
    ("tovenaar", "magiër", False),
    ("heks", "magiër", False),
    ("stiefvader", "stiefouder", False),
    ("stiefmoeder", "stiefouder", False),
    ("stiefzoon", "stiefkind", False),
    ("stiefdochter", "stiefkind", False),
    ("weduwe", "nabestaande", True),
    ("weduwnaar", "nabestaande", True),
    ("kok", "chef", False),
    ("kokkin", "chef", False),
    ("kunstenaar", "artiest", False),
    ("kunstenaares", "artiest", False),
    ("vriend", "maat", True),
    ("vriendin", "maat", True),
    ("vriendje", "partner", True),
    ("vriendinnetje", "partner", True),
)

_BUILTIN_LEXICON = RewriteLexicon({
    gendered: RewriteEntry(neutral, lossy)
    for gendered, neutral, lossy in _BUILTIN_NOUN_ROWS
})


def builtin_noun_lexicon() -> RewriteLexicon:
    """The bundled gendered-to-neutral noun table (86 entries)."""
    return _BUILTIN_LEXICON


def load_noun_lexicon(source: str | TextIO) -> RewriteLexicon:
    """Load a lexicon from ``gendered<TAB>neutral<TAB>0|1`` lines.

    The third field marks lossy entries. Blank lines and lines starting
    with ``#`` are skipped. Keys are lowercased; a duplicate key logs a
    warning and the last occurrence wins. Malformed lines raise
    :class:`LexiconFormatError` with their line number.
    """
    lexicon, warnings = _read_lexicon(
        source.read() if hasattr(source, "read") else source)
    for warning in warnings:
        import logging  # only here: the one message this module logs
        logging.getLogger(__name__).warning(warning)
    return lexicon


def _read_lexicon(text: str) -> tuple[RewriteLexicon, list[str]]:
    """:func:`load_noun_lexicon` of ``text``, the duplicate-key warnings
    returned as text instead of logged."""
    entries: dict[str, RewriteEntry] = {}
    warnings: list[str] = []
    for line_number, line in enumerate(text.splitlines(), 1):
        if not line.strip() or line.startswith("#"):
            continue
        columns = line.split("\t")
        if len(columns) != 3:
            raise LexiconFormatError(
                f"line {line_number}: expected 3 tab-separated fields, "
                f"found {len(columns)}")
        gendered, neutral, flag = columns
        if not gendered or not neutral:
            raise LexiconFormatError(f"line {line_number}: empty field")
        if flag not in ("0", "1"):
            raise LexiconFormatError(
                f"line {line_number}: lossy flag must be 0 or 1, got {flag!r}")
        key = gendered.lower()
        if key == neutral.lower():
            raise LexiconFormatError(
                f"line {line_number}: {gendered!r} maps to itself")
        if key in entries:
            warnings.append(f"duplicate lexicon key {key!r} at line "
                            f"{line_number}, last wins")
        entries[key] = RewriteEntry(neutral, flag == "1")
    return RewriteLexicon(entries), warnings


def transfer_case(template: str, replacement: str) -> str:
    """Shape ``replacement`` after the capitalization of ``template``.

    All-caps and initial-capital patterns carry over; anything else
    (including mixed case) yields the replacement as stored, which for
    the builtin tables means lowercase.
    """
    if not template or not replacement:
        return replacement
    if len(template) > 1 and template.isupper():
        return replacement.upper()
    if template[0].isupper() and (len(template) == 1 or template[1:].islower()):
        return replacement[0].upper() + replacement[1:]
    return replacement
