"""Parser fuzzing: any text given to a file reader either parses or
raises ValueError, never another exception or a numpy warning."""

from hypothesis import given, settings, strategies as st

from fuzzgrid import load_model, read_dataset
from fuzzgrid.cli import load_config

# Printable text and whitespace; no lone surrogates, which cannot be
# written as UTF-8.
CHARS = st.characters(blacklist_categories=("Cs",))
NUMBERS = [
    "0", "1", "-1", "2", "3", "9", "2.5", "-0.0", "1e308", "-1e308", "5e-324",
    "1e-300", "nan", "inf", "-inf", "1000000000000", "0x10", "1_0",
]


def text_of(tokens, sep):
    """Lines of known tokens, numbers and short free text joined by sep,
    among lines of arbitrary text."""
    token = st.sampled_from(tokens + NUMBERS) | st.text(CHARS, max_size=4)
    line = st.lists(token, max_size=8).map(sep.join) | st.text(CHARS, max_size=20)
    return st.lists(line, max_size=8).map("\n".join)


def parses_or_raises_value_error(reader, tmp_path_factory, text):
    path = tmp_path_factory.getbasetemp() / "parser-input.txt"
    path.write_text(text, encoding="utf-8")
    try:
        reader(path)
    except ValueError:
        pass


MODEL_TOKENS = ["#", "input", "output", "triangular", "gaussian"]

# Header fields are valid about half the time, so that many files get past
# the headers. Set counts stay small or far too large to allocate, so that
# no drawn header makes a reader without a size limit allocate much.
HEADER = st.tuples(
    st.sampled_from(["input", "output", "inputs"]),
    st.sampled_from(["triangular", "gaussian", "trapezoid"]),
    st.sampled_from(["0", "1"]) | st.sampled_from(NUMBERS),
    st.sampled_from(["11", "22"]) | st.sampled_from(NUMBERS),
    st.sampled_from(["-1", "0", "2", "3", "9", "2.5", "1000000000000"]),
    st.just("0.5") | st.sampled_from(NUMBERS),
).map(" ".join)
RULE = st.lists(st.sampled_from(["0", "1", "2", "-1", "5", "1.5", "nan", "1e308"]), max_size=5)


@settings(max_examples=200, deadline=None)
@given(
    text_of(MODEL_TOKENS, " ")
    | st.tuples(st.lists(HEADER, min_size=1, max_size=4), st.lists(RULE.map(" ".join), max_size=4))
    .map(lambda parts: "\n".join(parts[0] + parts[1]))
)
def test_model_parser_parses_or_raises_value_error(tmp_path_factory, text):
    parses_or_raises_value_error(load_model, tmp_path_factory, text)


@settings(max_examples=200, deadline=None)
@given(
    st.one_of(
        text_of(["x", "y", "z", "x,y,z"], ","),
        text_of(["x", "y", "z"], ",").map(lambda body: "x,y,z\n" + body),
    )
)
def test_dataset_parser_parses_or_raises_value_error(tmp_path_factory, text):
    parses_or_raises_value_error(read_dataset, tmp_path_factory, text)


CONFIG_TOKENS = ["n", "noise", "seed", "sets", "init", "zero", "cluster", "uniform", "=", "#", "mf"]


@settings(max_examples=200, deadline=None)
@given(text_of(CONFIG_TOKENS, "") | text_of(CONFIG_TOKENS, "="))
def test_config_parser_parses_or_raises_value_error(tmp_path_factory, text):
    parses_or_raises_value_error(load_config, tmp_path_factory, text)
