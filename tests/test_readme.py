"""The README's code stays true: its Library block runs as written."""

import re
from pathlib import Path

from reshare.dataset import write_dataset
from reshare.synthgen import SynthConfig, generate

README = Path(__file__).resolve().parents[1] / "README.md"


def test_library_block_runs_on_a_small_synthetic_dataset(tmp_path, monkeypatch, capsys):
    block = re.search(r"## Library\n\n```python\n(.*?)```", README.read_text(), re.S).group(1)
    graph, users, _ = generate(SynthConfig(
        n_users=120, n_posts=80, n_hate_posts=30, n_clusters=2, exposure_norm_quantile=0.9,
        mean_shares=25.0, seed=3, with_text=False,
    ))
    write_dataset(graph, users, tmp_path)  # the block reads posts.csv etc. from the cwd
    monkeypatch.chdir(tmp_path)
    names = {}
    exec(compile(block, str(README), "exec"), names)
    assert len(names["per_type"]) == len(names["outcomes"].clusters) == 2
    assert names["curve"].feature == "log1p_n_followers"
    assert "('recall', 20)" in capsys.readouterr().out
