"""Knowledge-augmented text composition.

Class names compose as "<prompt>, <query>, <knowledge>"; captions support a
Concat scheme (append query+knowledge to the caption) and a Combine scheme
(emit both the query-based and the caption-based composition). Component
separator is ", " throughout. Composed texts respect a whitespace-token
budget: knowledge is trimmed first, then the caption; prompt and query are
never trimmed.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional

SEPARATOR = ", "

DEFAULT_TEMPLATE = "a photo of a {}"

DEFAULT_MAX_TOKENS = 64


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
    """Read one template pattern per non-empty line."""
    path = Path(path)
    templates = []
    with open(path, encoding="utf-8") as handle:
        for line in handle:
            line = line.strip()
            if line:
                templates.append(PromptTemplate(line))
    if not templates:
        raise ValueError(f"{path}: no templates found")
    return templates


@dataclass
class AugmentedText:
    """A composed training/eval text plus the parts it was built from."""

    text: str
    parts: dict = field(default_factory=dict)


def _word_budget(max_tokens: int) -> int:
    # One slot is reserved for the pooling token the encoder appends.
    return max(1, max_tokens - 1)


def _trim_words(text: str, allowed: int) -> str:
    words = text.split()
    if len(words) <= allowed:
        return text
    return " ".join(words[:allowed])


def _budgeted_knowledge(
    fixed_texts: list[str], knowledge: str, max_tokens: int
) -> Optional[str]:
    """Trim knowledge so the full composition fits the token budget."""
    budget = _word_budget(max_tokens)
    fixed = sum(len(t.split()) for t in fixed_texts)
    room = budget - fixed
    if room <= 0:
        return None
    trimmed = _trim_words(knowledge, room)
    return trimmed if trimmed else None


def _join(parts: list[str]) -> str:
    return SEPARATOR.join(parts)


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
    if not query.strip():
        raise ValueError("query must be non-empty")
    prompt = template.format(query)
    if knowledge is not None:
        knowledge = _budgeted_knowledge([prompt, query], knowledge, max_tokens)
    return AugmentedText(
        text=prompt if knowledge is None else _join([prompt, query, knowledge]),
        parts={"prompt": prompt, "query": query, "knowledge": knowledge},
    )


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
    if scheme not in ("concat", "combine"):
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
        text=_join([cap, query, know]),
        parts={"original_caption": cap, "query": query, "knowledge": know},
    )
    if scheme == "concat":
        return [concat]
    query_only = AugmentedText(_join([query, know]), {"query": query, "knowledge": know})
    return [query_only, concat]


def compose_od_text(
    query: str,
    knowledge: Optional[str],
    max_tokens: int = DEFAULT_MAX_TOKENS,
) -> AugmentedText:
    """Prompt-free composition "<query>, <knowledge>" used by grounding."""
    if not query.strip():
        raise ValueError("query must be non-empty")
    if knowledge is not None:
        knowledge = _budgeted_knowledge([query], knowledge, max_tokens)
    return AugmentedText(
        text=query if knowledge is None else _join([query, knowledge]),
        parts={"query": query, "knowledge": knowledge},
    )
