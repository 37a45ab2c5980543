"""Knowledge-augmented text composition.

Class names compose as "<prompt>, <query>, <knowledge>"; captions support a
Concat scheme (append query+knowledge to the caption) and a Combine scheme
(emit both the query-based and the caption-based composition). Component
separator is ", " throughout. Composed texts respect a whitespace-token
budget: knowledge is trimmed first, then the caption; prompt and query are
never trimmed. ``class_texts`` makes a class name's one knowledge decision.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from .errors import DataError
from .queries import construct_query, tokenize

SEPARATOR = ", "

DEFAULT_TEMPLATE = "a photo of a {}"

DEFAULT_MAX_TOKENS = 64

CAPTION_SCHEMES = ("concat", "combine")


@dataclass(frozen=True)
class PromptTemplate:
    """A natural-language wrapper with exactly one '{}' placeholder."""

    pattern: str = DEFAULT_TEMPLATE

    def __post_init__(self):
        if self.pattern.count("{}") != 1:
            raise ValueError(
                f"prompt template must contain exactly one '{{}}': {self.pattern!r}"
            )

    def format(self, query: str) -> str:
        return self.pattern.replace("{}", query)


def load_templates(path) -> list[PromptTemplate]:
    """Read one template pattern per non-empty line; a bad one is located."""
    # Imported here: at module level it loads knowledge before encoder is
    # compiled, which raises the import-time memory peak of lexivis.cli.
    from .knowledge import read_lines

    templates = []
    for where, line in read_lines(path):
        try:
            templates.append(PromptTemplate(line))
        except ValueError as exc:
            raise DataError(f"{where}: {exc}") from exc
    return templates


@dataclass
class AugmentedText:
    """A composed training/eval text plus the parts it was built from."""

    text: str
    parts: dict = field(default_factory=dict)


def _word_budget(max_tokens: int) -> int:
    # One slot is reserved for the pooling token the encoder adds.
    return max_tokens - 1


def _trim_words(text: str, allowed: int) -> str:
    words = text.split()
    if len(words) <= allowed:
        return text
    return " ".join(words[:allowed])


def _budgeted_knowledge(
    fixed_texts: list[str], knowledge: str, max_tokens: int
) -> Optional[str]:
    """Trim knowledge so the full composition fits the token budget."""
    room = _word_budget(max_tokens) - sum(len(t.split()) for t in fixed_texts)
    return (_trim_words(knowledge, room) or None) if room > 0 else None


def _compose(fixed: list[str], query: str, knowledge: Optional[str], max_tokens: int) -> tuple:
    """``(text, kept knowledge)``: ``fixed`` joined with the knowledge the budget keeps.

    With no knowledge left the text is ``fixed[0]``: the prompt, or the bare query.
    """
    if not query.strip():
        raise ValueError("query must be non-empty")
    if knowledge is not None:
        knowledge = _budgeted_knowledge(fixed, knowledge, max_tokens)
    return (fixed[0] if knowledge is None else SEPARATOR.join([*fixed, knowledge])), knowledge


def compose_class_text(
    template: PromptTemplate,
    query: str,
    knowledge: Optional[str],
    max_tokens: int = DEFAULT_MAX_TOKENS,
) -> AugmentedText:
    """Class-name composition "<prompt>, <query>, <knowledge>".

    Without knowledge this degenerates to the vanilla prompt, which is what
    keeps knowledge-free runs string-identical to the baseline.
    """
    prompt = template.format(query)
    text, knowledge = _compose([prompt, query], query, knowledge, max_tokens)
    return AugmentedText(text, {"prompt": prompt, "query": query, "knowledge": knowledge})


def check_class_budget(name: str, text: str, max_tokens: int) -> str:
    """``text`` composed for class ``name``, or ``DataError`` if the encoder would cut it.

    Only knowledge is trimmed to the budget, so a long prompt or query can
    still exceed it; the class is named rather than encoded cut short.
    """
    budget = _word_budget(max_tokens)
    n_tokens = len(tokenize(text))
    if n_tokens > budget:
        raise DataError(f"class {name!r} has {n_tokens} tokens; max is {budget}")
    return text


def compose_caption_texts(
    caption: str,
    query: str,
    knowledge: Optional[str],
    scheme: str,
    max_tokens: int = DEFAULT_MAX_TOKENS,
) -> list[AugmentedText]:
    """Caption composition under the Concat or Combine scheme.

    Concat emits one text "<caption>, <query>, <knowledge>"; Combine emits
    the query composition "<query>, <knowledge>" plus the Concat text. With
    no knowledge both schemes return the caption unchanged.
    """
    if not caption.strip():
        raise ValueError("caption must be non-empty")
    if scheme not in CAPTION_SCHEMES:
        raise ValueError(f"unknown caption scheme {scheme!r}")
    if knowledge is None:
        parts = {"original_caption": caption, "query": query, "knowledge": None}
        return [AugmentedText(text=caption, parts=parts)]

    budget = _word_budget(max_tokens)
    know = _budgeted_knowledge([caption, query], knowledge, max_tokens)
    cap = caption
    if know is None:
        # Knowledge used up all the slack; trim the caption tail instead,
        # keeping at least one knowledge word. Query is never trimmed.
        know = _trim_words(knowledge, 1)
        cap_room = budget - len(query.split()) - len(know.split())
        cap = _trim_words(caption, max(1, cap_room))
    concat = AugmentedText(
        text=SEPARATOR.join([cap, query, know]),
        parts={"original_caption": cap, "query": query, "knowledge": know},
    )
    if scheme == "concat":
        return [concat]
    query_only = AugmentedText(SEPARATOR.join([query, know]), {"query": query, "knowledge": know})
    return [query_only, concat]


def compose_od_text(
    query: str,
    knowledge: Optional[str],
    max_tokens: int = DEFAULT_MAX_TOKENS,
) -> AugmentedText:
    """Prompt-free composition "<query>, <knowledge>" used by grounding."""
    text, knowledge = _compose([query], query, knowledge, max_tokens)
    return AugmentedText(text, {"query": query, "knowledge": knowledge})


def class_texts(
    name: str, store, source: str, max_tokens: int,
    templates: Optional[list[PromptTemplate]] = None,
) -> tuple[str, list[str], bool]:
    """Class ``name``'s ``(query, texts, kept)``: the one decision augment and eval share.

    Knowledge is retrieved once, iff a ``store`` is given. Each template gives
    one ``compose_class_text``; with none, the one text is the prompt-free
    ``compose_od_text`` of grounding. ``kept`` is whether the texts carry
    knowledge: if the budget drops it from any text, every text is composed
    without it. A text over the budget raises ``DataError`` naming the class.
    """
    query = construct_query(name, "category")
    item = store.retrieve(query, source) if store is not None else None
    for knowledge in (item.text if item is not None else None, None):
        augs = ([compose_class_text(t, query, knowledge, max_tokens) for t in templates]
                if templates else [compose_od_text(query, knowledge, max_tokens)])
        kept = all(aug.parts["knowledge"] is not None for aug in augs)
        if kept or knowledge is None:
            break
    return query, [check_class_budget(name, aug.text, max_tokens) for aug in augs], kept
