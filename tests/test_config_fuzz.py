"""Mutated shipped configs, run in-process through ``cli.main``: nothing escapes, and exit 2 names the config.

Each example copies ``configs/`` under a fresh directory, takes one shipped
config and applies one or two mutations to it: a key's value replaced by
one of ``VALUES``, or a key its section knows given with one of them
(given twice, if the config already sets it).  ``steps`` is capped at 30
so that every run is short.  Every exit code is one the CLI documents, and
every exit-2 message opens with the config's path, as a config error does.
Where one key was mutated, an exit-2 message names that key's line, unless
it is of a cross-key class in ``CROSS_KEY``, whose fault no one line owns.
"""

import contextlib
import io
import re
import shutil
import tempfile
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

from lco_lab.cli import main
from lco_lab.config import SECTIONS

CONFIGS = Path(__file__).resolve().parent.parent / "configs"
SHIPPED = sorted(path.name for path in CONFIGS.glob("*.cfg"))
COMMAND = {"converge_tabular_mse.cfg": "converge", "dynamics_ppo_vs_kld.cfg": "dynamics"}
# texts a value is replaced with: numbers at and past every range, text no reader takes, lists,
# a file that is not there, and the names the enum readers take
VALUES = [
    "inf", "-inf", "nan", "1e400", "-1", "0", "1", "0.5", "2", "1e-300", "abc", "1,2", "1, 2, 3", "-1, 0",
    "missing.txt", "neg_score_both.txt", "PPO", "LCO_MSE", "LCO_KLD", "SFT", "LINEAR", "MLP1", "table", "yes", "",
]
MAX_STEPS = 30
# exit-2 messages of faults between keys, which one mutated key can cause while another key's
# line is named or none is: each class by name, with the pattern of its messages
CROSS_KEY = {
    # the family or reward rule picks the keys read, so a changed rule finds another key unread
    "a key the chosen family or reward rule does not read": r"\] \w+ is given but the \w+ (family|reward) does not",
    "a reward table against vocab_size and horizon": r"\[environment\] invalid: table must have shape",
    "a match target against vocab_size and horizon": r"\[environment\] invalid: target (length must|\d+ outside)",
    "the envelope anchor ||A||^2 / beta^2 of advantages and beta": r"\[converge\] invalid: the envelope anchor",
}
KEY = re.compile(r"^(\w+)\s*=\s*([^#]*?)\s*(#.*)?$")


def _lines(text: str) -> list[tuple[str | None, str | None, str]]:
    """Each line of a config with its section and key (None where it has none)."""
    section, out = None, []
    for line in text.splitlines():
        stripped = line.strip()
        if stripped.startswith("[") and stripped.endswith("]"):
            section = stripped[1:-1]
        match = KEY.match(stripped)
        out.append((section, match.group(1) if match else None, line))
    return out


def _capped(lines):
    """``steps`` at most MAX_STEPS, where its value is an integer."""
    out = []
    for section, key, line in lines:
        match = KEY.match(line.strip())
        if key == "steps" and re.fullmatch(r"\d+", match.group(2)) and int(match.group(2)) > MAX_STEPS:
            line = f"steps = {MAX_STEPS}"
        out.append((section, key, line))
    return out


@st.composite
def mutated_configs(draw):
    """A shipped config's name, its mutated text, and the line of the one mutated key (None after two)."""
    name = draw(st.sampled_from(SHIPPED))
    lines = _lines((CONFIGS / name).read_text())
    mutations = draw(st.integers(1, 2))
    for _ in range(mutations):
        value = draw(st.sampled_from(VALUES))
        keyed = [i for i, (_, key, _) in enumerate(lines) if key is not None]
        if draw(st.booleans()):
            i = draw(st.sampled_from(keyed))
            section, key, _ = lines[i]
            lines[i] = (section, key, f"{key} = {value}")
        else:
            sections = [i for i, (section, key, line) in enumerate(lines) if key is None and line.strip().startswith("[")]
            i = draw(st.sampled_from(sections)) + 1
            section = lines[i - 1][0]
            key = draw(st.sampled_from(sorted(SECTIONS[section])))
            lines.insert(i, (section, key, f"{key} = {value}"))
    return name, "\n".join(line for *_, line in _capped(lines)) + "\n", i + 1 if mutations == 1 else None


@settings(derandomize=True, max_examples=200, deadline=None, database=None)
@given(mutated_configs())
def test_a_mutated_shipped_config_exits_with_a_documented_code(case):
    name, text, line = case
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        shutil.copytree(CONFIGS, root / "configs", ignore=shutil.ignore_patterns("out"))
        cfg = root / "configs" / name
        cfg.write_text(text)
        stderr = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(stderr):
            code = main([COMMAND.get(name, "train"), "--config", str(cfg), "--out", str(root / "out")])
    assert code in (0, 1, 2, 3), (code, text)
    message = stderr.getvalue()
    if code == 2:
        assert message.startswith(f"error: {cfg}"), (message, text)
    if code == 2 and line is not None:
        # at the key's line, or, for a key given twice, naming it as the first
        named = message.startswith(f"error: {cfg}:{line}: ") or message.endswith(f"; first at line {line}\n")
        assert named or any(re.search(pattern, message) for pattern in CROSS_KEY.values()), (message, text)
