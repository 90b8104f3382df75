"""The env-var switchboard and the doc tables generated from it."""

import ast
import multiprocessing
import os
import subprocess
import sys
from concurrent.futures import ProcessPoolExecutor

import pytest

from repro import envvars

REPO_ROOT = os.path.abspath(
    os.path.join(os.path.dirname(__file__), ".."))

#: Docs that embed generated envvars tables.
DOCS = ("README.md", "docs/performance.md", "docs/robustness.md",
        "docs/observability.md", "docs/service.md")


class TestRegistry:
    def test_names_unique_and_prefixed(self):
        names = [v.name for v in envvars.REGISTRY]
        assert len(names) == len(set(names))
        assert all(n.startswith("REPRO_") for n in names)

    def test_groups_valid(self):
        assert {v.group for v in envvars.REGISTRY} \
            <= set(envvars.GROUP_ORDER)

    def test_by_group_filters(self):
        robustness = envvars.by_group("robustness")
        assert {v.name for v in robustness} == {
            "REPRO_CHAOS", "REPRO_STRICT", "REPRO_STEP_BUDGET",
            "REPRO_SHARD_TIMEOUT"}

    def test_table_renders_every_variable(self):
        table = envvars.markdown_table()
        for var in envvars.REGISTRY:
            assert f"`{var.name}`" in table


class TestDocsAgree:
    """Acceptance: a single registry, docs generated from it."""

    @pytest.mark.parametrize("doc", DOCS)
    def test_doc_blocks_match_registry(self, doc):
        path = os.path.join(REPO_ROOT, doc)
        with open(path) as fh:
            text = fh.read()
        blocks = envvars.doc_blocks(text)
        assert blocks, f"{doc} has no envvars marker block"
        for block in blocks:
            assert block["body"] == block["expected"], (
                f"{doc} env-var table is stale: regenerate with "
                f"'python -m repro.envvars --update {doc}'")

    def test_update_doc_is_idempotent_fixpoint(self):
        path = os.path.join(REPO_ROOT, "README.md")
        with open(path) as fh:
            text = fh.read()
        assert envvars.update_doc(text) == text

    def test_update_doc_rewrites_stale_block(self):
        stale = ("before\n<!-- envvars:begin group=performance -->\n"
                 "| old | junk |\n<!-- envvars:end -->\nafter")
        updated = envvars.update_doc(stale)
        assert "REPRO_NO_FASTPATH" in updated
        assert "| old | junk |" not in updated
        assert updated.startswith("before\n")
        assert updated.endswith("\nafter")


class TestCli:
    def test_envvars_command(self, capsys):
        from repro.cli import main
        assert main(["envvars", "--group", "observability"]) == 0
        out = capsys.readouterr().out
        assert "REPRO_WINDOW" in out
        assert "REPRO_SCALE" not in out

    def test_envvars_json(self, capsys):
        import json
        from repro.cli import main
        assert main(["envvars", "--format", "json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert any(v["name"] == "REPRO_CHAOS" for v in doc)


class TestGet:
    @pytest.mark.parametrize("var", envvars.REGISTRY,
                             ids=lambda v: v.name)
    def test_unset_or_empty_is_the_default(self, var, monkeypatch):
        monkeypatch.delenv(var.name, raising=False)
        assert envvars.get(var.name) == var.default
        monkeypatch.setenv(var.name, " ")
        assert envvars.get(var.name) == var.default

    @pytest.mark.parametrize("var", envvars.REGISTRY,
                             ids=lambda v: v.name)
    def test_bad_value_raises_naming_variable(self, var, monkeypatch):
        monkeypatch.setenv(var.name, "abc")
        if var.parse is envvars.text:  # any text is a valid path
            assert envvars.get(var.name) == "abc"
            return
        with pytest.raises(ValueError, match=f"{var.name}='abc'"):
            envvars.get(var.name)

    @pytest.mark.parametrize("name, raw", [
        ("REPRO_NO_FASTPATH", "2"), ("REPRO_STREAM_EPOCH", "-5"),
        ("REPRO_JOBS", "0"), ("REPRO_SAMPLE", "1.5"),
        ("REPRO_SAMPLE", "0"), ("REPRO_SHARD_TIMEOUT", "nan"),
        ("REPRO_SERVE_WINDOW", "0"), ("REPRO_SEED", "-1")])
    def test_out_of_range_raises(self, name, raw, monkeypatch):
        monkeypatch.setenv(name, raw)
        with pytest.raises(ValueError, match=f"{name}='{raw}'"):
            envvars.get(name)

    @pytest.mark.parametrize("raw, value", [
        ("1", True), ("true", True), ("YES", True), (" on ", True),
        ("0", False), ("false", False), ("No", False), ("off", False)])
    def test_flag_words(self, raw, value, monkeypatch):
        monkeypatch.setenv("REPRO_STRICT", raw)
        assert envvars.get("REPRO_STRICT") is value

    def test_no_parsing_at_import(self):
        env = dict(os.environ, REPRO_JOBS="abc", REPRO_SCALE="abc",
                   PYTHONPATH=os.path.join(REPO_ROOT, "src"))
        subprocess.run([sys.executable, "-c", "import repro.eval"],
                       env=env, check=True)

    def test_experiment_reads_registry_when_built(self, monkeypatch):
        from repro.eval.pipeline import Experiment
        monkeypatch.setenv("REPRO_SCALE", "0.0005")
        monkeypatch.setenv("REPRO_SEED", "3")
        experiment = Experiment()
        assert (experiment.scale, experiment.seed) == (0.0005, 3)


class TestForced:
    def test_forced_wins_over_env_and_restores(self, monkeypatch):
        monkeypatch.setenv("REPRO_WINDOW", "7")
        with envvars.forced("REPRO_WINDOW", 3):
            with envvars.forced("REPRO_WINDOW", 5):
                assert envvars.get("REPRO_WINDOW") == 5
            assert envvars.get("REPRO_WINDOW") == 3
        assert envvars.get("REPRO_WINDOW") == 7

    def test_unknown_name_rejected(self):
        with pytest.raises(KeyError):
            with envvars.forced("REPRO_NOT_A_VARIABLE", 1):
                pass

    def test_forked_workers_inherit_forced_values(self):
        context = multiprocessing.get_context("fork")
        with envvars.forced("REPRO_STEP_BUDGET", 7):
            with ProcessPoolExecutor(1, mp_context=context) as pool:
                assert pool.submit(envvars.get,
                                   "REPRO_STEP_BUDGET").result() == 7


class TestCacheRoot:
    def test_serve_state_defaults_under_pipeline_cache_root(
            self, tmp_path, monkeypatch):
        """The daemon and the batch CLI share one cache tree, whatever
        the working directory."""
        from repro.parallel.shard_cache import store_dir
        from repro.serve.config import ServeConfig
        monkeypatch.delenv("REPRO_CACHE", raising=False)
        monkeypatch.delenv("REPRO_SERVE_STATE", raising=False)
        monkeypatch.chdir(tmp_path)
        root = os.path.dirname(store_dir("haswell", 0))
        assert ServeConfig().state_dir == os.path.join(root, "serve")


def _environ_reads(path):
    """(line, name) for every environment read in a source file; name
    is None when the variable name is not a string literal or a
    module-level string constant."""
    with open(path) as fh:
        tree = ast.parse(fh.read())
    constants = {target.id: node.value.value
                 for node in tree.body if isinstance(node, ast.Assign)
                 and isinstance(node.value, ast.Constant)
                 for target in node.targets
                 if isinstance(target, ast.Name)}
    reads = []
    for node in ast.walk(tree):
        key = None
        if isinstance(node, ast.Call) and ast.unparse(node.func) in (
                "os.getenv", "os.environ.get") and node.args:
            key = node.args[0]
        elif isinstance(node, ast.Subscript) \
                and isinstance(node.ctx, ast.Load) \
                and ast.unparse(node.value) == "os.environ":
            key = node.slice
        elif isinstance(node, ast.Compare) and any(
                ast.unparse(c) == "os.environ" for c in node.comparators):
            key = node.left
        else:
            continue
        if isinstance(key, ast.Constant):
            name = key.value
        elif isinstance(key, ast.Name):
            name = constants.get(key.id)
        else:
            name = None
        reads.append((node.lineno, name))
    return reads


def test_only_the_switchboard_reads_repro_variables():
    """Every REPRO_* read goes through ``envvars.get``; the CLI only
    exports variables (stores, which this scan ignores)."""
    src = os.path.join(REPO_ROOT, "src", "repro")
    offenders = []
    for root, _, files in os.walk(src):
        for name in files:
            path = os.path.join(root, name)
            if not name.endswith(".py") or path == envvars.__file__:
                continue
            offenders += [f"{os.path.relpath(path, REPO_ROOT)}:{line}"
                          for line, var in _environ_reads(path)
                          if var is None or str(var).startswith("REPRO_")]
    assert offenders == []
