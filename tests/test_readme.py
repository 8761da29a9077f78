import argparse
import json
import re
import shlex
import subprocess
import sys
import types
from pathlib import Path

import numpy as np

import tilrma
from tilrma import cli, wavio

ROOT = Path(__file__).resolve().parents[1]
README = ROOT / "README.md"


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


def write_mixture(directory, rate, seconds):
    """Write mixture.wav, a 2 x 2 mix of a tone and gated noise, and the two
    sources as ref0.wav and ref1.wav; return the reference paths."""
    rng = np.random.default_rng(0)
    t = np.arange(seconds * rate) / rate
    tone = np.sin(2 * np.pi * 300 * t) * (0.6 + 0.4 * np.sin(2 * np.pi * 2 * t))
    noise = rng.standard_normal(t.size) * np.clip(np.sin(2 * np.pi * 1.5 * t), 0.05, None)
    sources = 0.3 * np.stack([tone, noise], axis=1)
    mixture = sources @ np.array([[1.0, 0.6], [0.5, 1.0]]).T
    wavio.write_wav(directory / "mixture.wav", mixture, rate, "float32")
    refs = [str(directory / f"ref{k}.wav") for k in range(2)]
    for path, source in zip(refs, sources.T):
        wavio.write_wav(path, source, rate, "float32")
    return refs


def test_library_use_example_runs(tmp_path, monkeypatch):
    # 2 s at 4 kHz keeps the documented 200 iterations to a few seconds
    rate = 4000
    write_mixture(tmp_path, rate, 2)
    monkeypatch.chdir(tmp_path)

    namespace = {}
    exec(compile(code_block("Library use", "python"), str(README), "exec"), namespace)

    result = namespace["result"]
    assert result.cost_trace.size == 200
    assert namespace["signal"].shape == (2 * rate, 2)
    total = np.sum([result.image(n).values for n in range(result.num_sources)], axis=0)
    assert np.max(np.abs(total - namespace["spec"].values)) <= 1e-10


def test_result_file_keys_match_readme(tmp_path):
    refs = write_mixture(tmp_path, 8000, 1)
    out = tmp_path / "out"
    code = cli.main(["separate", str(tmp_path / "mixture.wav"), "--iters", "2", "--refs", *refs,
                     "--taps", "8", "--window-ms", "64", "--shift-ms", "16", "--out", str(out)])
    assert code == 0

    documented = re.findall(r"^(\w+) ", code_block("Result file", ""), re.M)
    report = json.loads((out / "result.json").read_text())
    assert list(report) == documented


def test_numpy_is_the_only_runtime_dependency():
    # README: "Only `numpy` is required at runtime"; a fresh interpreter
    # counts the top-level modules that ``import tilrma`` loads
    code = ("import json, sys; sys.path.insert(0, sys.argv[1]); before = set(sys.modules); "
            "import tilrma; "
            "print(json.dumps([name.partition('.')[0] for name in set(sys.modules) - before]))")
    done = subprocess.run([sys.executable, "-c", code, str(ROOT / "src")], capture_output=True,
                          text=True, check=True, timeout=120)
    loaded = set(json.loads(done.stdout))
    assert "tilrma" in loaded
    assert loaded - set(sys.stdlib_module_names) <= {"numpy", "tilrma"}, loaded


def test_all_lists_exactly_the_public_names():
    # a removed function cannot stay exported, nor an export go unlisted
    bound = {name for name, value in vars(tilrma).items()
             if not name.startswith("_") and not isinstance(value, types.ModuleType)}
    assert sorted(tilrma.__all__) == sorted(bound)
