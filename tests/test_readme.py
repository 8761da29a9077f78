import argparse
import re
import shlex
from pathlib import Path

import numpy as np

from tilrma import cli, wavio

README = Path(__file__).resolve().parents[1] / "README.md"


def code_block(heading, language):
    section = README.read_text().split(f"## {heading}", 1)[1]
    return re.search(rf"```{language}\n(.*?)```", section, re.S).group(1)


def test_command_line_examples_parse():
    commands = [shlex.split(line)[1:] for line in code_block("Command line", "bash").splitlines()
                if line.startswith("tilrma ")]
    assert len(commands) >= 4
    parser = cli.build_parser()
    used = {parser.parse_args(argv).command for argv in commands}
    defined = next(action.choices for action in parser._actions
                   if isinstance(action, argparse._SubParsersAction))
    assert used == set(defined)


def test_library_use_example_runs(tmp_path, monkeypatch):
    # 2 s at 4 kHz keeps the documented 200 iterations to a few seconds
    rng = np.random.default_rng(0)
    rate = 4000
    t = np.arange(2 * rate) / rate
    tone = np.sin(2 * np.pi * 300 * t) * (0.6 + 0.4 * np.sin(2 * np.pi * 2 * t))
    noise = rng.standard_normal(t.size) * np.clip(np.sin(2 * np.pi * 1.5 * t), 0.05, None)
    mixture = np.stack([tone, noise], axis=1) @ np.array([[1.0, 0.6], [0.5, 1.0]]).T
    wavio.write_wav(tmp_path / "mixture.wav", 0.3 * mixture, rate, "float32")
    monkeypatch.chdir(tmp_path)

    namespace = {}
    exec(compile(code_block("Library use", "python"), str(README), "exec"), namespace)

    result = namespace["result"]
    assert result.cost_trace.size == 200
    assert namespace["signal"].shape == (2 * rate, 2)
    total = np.sum([image.values for image in result.images], axis=0)
    assert np.max(np.abs(total - namespace["spec"].values)) <= 1e-10
