import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lexivis.compose import (
    SEPARATOR,
    PromptTemplate,
    compose_caption_texts,
    compose_class_text,
    compose_od_text,
    load_templates,
)
from lexivis.errors import DataError

WIKI_BOXER = "a participant (fighter) in a boxing match"


class TestTemplate:
    def test_format(self):
        assert PromptTemplate("a photo of a {}").format("boxer") == "a photo of a boxer"

    def test_no_placeholder_errors(self):
        with pytest.raises(ValueError):
            PromptTemplate("a photo of a")

    def test_two_placeholders_error(self):
        with pytest.raises(ValueError):
            PromptTemplate("{} and {}")

    def test_load_templates(self, tmp_path):
        path = tmp_path / "t.txt"
        path.write_text("a photo of a {}\n\nan image of a {}\n")
        templates = load_templates(path)
        assert [t.pattern for t in templates] == ["a photo of a {}", "an image of a {}"]

    # The error used to name neither the file nor the line.
    def test_bad_template_line_is_located(self, tmp_path):
        path = tmp_path / "t.txt"
        path.write_text("a photo of a {}\n\nno placeholder\n")
        with pytest.raises(DataError, match=f"{path}:3: prompt template must contain"):
            load_templates(path)


class TestClassText:
    def test_published_composition(self):
        aug = compose_class_text(PromptTemplate("a photo of a {}"), "boxer", WIKI_BOXER)
        assert aug.text == f"a photo of a boxer, boxer, {WIKI_BOXER}"

    def test_degenerates_to_prompt_without_knowledge(self):
        aug = compose_class_text(PromptTemplate("a photo of a {}"), "boxer", None)
        assert aug.text == "a photo of a boxer"
        assert aug.parts["knowledge"] is None

    def test_empty_query_errors(self):
        with pytest.raises(ValueError):
            compose_class_text(PromptTemplate(), "  ", WIKI_BOXER)

    def test_round_trip_from_parts(self):
        aug = compose_class_text(PromptTemplate(), "boxer", WIKI_BOXER)
        rebuilt = SEPARATOR.join(
            [aug.parts["prompt"], aug.parts["query"], aug.parts["knowledge"]]
        )
        assert rebuilt == aug.text

    def test_knowledge_truncated_first(self):
        long_knowledge = " ".join(f"w{i}" for i in range(100))
        aug = compose_class_text(PromptTemplate(), "boxer", long_knowledge, max_tokens=16)
        assert len(aug.text.split()) <= 15
        assert aug.parts["prompt"] == "a photo of a boxer"
        assert aug.parts["query"] == "boxer"
        assert aug.text.startswith("a photo of a boxer, boxer, w0")


class TestCaptionTexts:
    CAPTION = "professional boxer is introduced to the crowd"

    def test_concat_single_text(self):
        texts = compose_caption_texts(self.CAPTION, "professional boxer", WIKI_BOXER, "concat")
        assert len(texts) == 1
        assert texts[0].text == f"{self.CAPTION}, professional boxer, {WIKI_BOXER}"

    def test_combine_two_texts(self):
        texts = compose_caption_texts(self.CAPTION, "professional boxer", WIKI_BOXER, "combine")
        assert [t.text for t in texts] == [
            f"professional boxer, {WIKI_BOXER}",
            f"{self.CAPTION}, professional boxer, {WIKI_BOXER}",
        ]

    def test_no_knowledge_returns_caption_unchanged(self):
        for scheme in ("concat", "combine"):
            texts = compose_caption_texts(self.CAPTION, "boxer", None, scheme)
            assert [t.text for t in texts] == [self.CAPTION]

    def test_combine_cardinality(self):
        with_k = compose_caption_texts("a dog", "dog", "a canine", "combine")
        without = compose_caption_texts("a dog", "dog", None, "combine")
        assert (len(with_k), len(without)) == (2, 1)

    def test_empty_caption_errors(self):
        with pytest.raises(ValueError):
            compose_caption_texts("", "q", WIKI_BOXER, "concat")

    def test_unknown_scheme_errors(self):
        with pytest.raises(ValueError):
            compose_caption_texts("a dog", "dog", "def", "merge")

    def test_caption_trimmed_after_knowledge(self):
        caption = " ".join(f"c{i}" for i in range(30))
        texts = compose_caption_texts(caption, "dog", "a canine animal", "concat", max_tokens=16)
        assert len(texts[0].text.split()) <= 15
        assert "dog" in texts[0].text


class TestOdText:
    def test_with_knowledge(self):
        aug = compose_od_text("fireplug", "an upright hydrant for water")
        assert aug.text == "fireplug, an upright hydrant for water"

    def test_without_knowledge(self):
        assert compose_od_text("person", None).text == "person"

    def test_empty_query_errors(self):
        with pytest.raises(ValueError):
            compose_od_text("", "def")


@settings(max_examples=40, deadline=None)
@given(
    query=st.text(alphabet="abcdef ", min_size=1, max_size=12).filter(str.strip),
    knowledge=st.one_of(st.none(), st.text(alphabet="ghijkl ", min_size=1, max_size=20).filter(str.strip)),
)
def test_degeneration_everywhere(query, knowledge):
    # knowledge-free composition equals the baseline input, string-exact
    template = PromptTemplate("a photo of a {}")
    if knowledge is None:
        assert compose_class_text(template, query, None).text == template.format(query)
        assert compose_od_text(query, None).text == query
        assert [t.text for t in compose_caption_texts("some caption", query, None, "combine")] == [
            "some caption"
        ]
    else:
        aug = compose_class_text(template, query, knowledge)
        assert aug.text.startswith(template.format(query))
        assert aug.parts["knowledge"] is not None
