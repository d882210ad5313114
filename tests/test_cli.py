"""Tests for the command-line interface."""

from __future__ import annotations

import pytest

from repro.cli import build_parser, main
from repro.core import CHECKPOINT_NAME

RECIPE = """
scenario: tiny
nodes:
  Person:
    properties:
      age: {dtype: long, generator: uniform_int,
            params: {low: 18, high: 80}}
edges:
  knows:
    tail: Person
    head: Person
    structure: {generator: erdos_renyi_m, params: {edges_per_node: 3}}
scale: {Person: 50}
"""

#: the structure binding the boundary cases swap out of RECIPE.
STRUCTURE = "generator: erdos_renyi_m, params: {edges_per_node: 3}"


BAD_SBM_RECIPE = """
scenario: bad_sbm
nodes:
  Person:
    properties:
      age: {dtype: long, generator: uniform_int,
            params: {low: 18, high: 80}}
edges:
  knows:
    tail: Person
    head: Person
    structure:
      generator: sbm
      params:
        sizes: [10, 10]
        probabilities: [[1.5, 0.1], [0.1, 0.5]]
scale: {Person: 20}
"""


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_generate_args(self):
        args = build_parser().parse_args(
            ["generate", "s.yaml", "--seed", "7", "--format", "jsonl"]
        )
        assert args.name == "s.yaml"
        assert args.seed == 7


class TestGenerate:
    def test_csv_output(self, tmp_path, capsys):
        schema_path = tmp_path / "tiny.yaml"
        schema_path.write_text(RECIPE)
        out = tmp_path / "out"
        code = main(
            ["generate", str(schema_path), "--out", str(out)]
        )
        assert code == 0
        assert (out / "knows.csv").exists()
        assert (out / "Person.age.csv").exists()
        assert "scenario 'tiny'" in capsys.readouterr().out

    def test_scale_override(self, tmp_path, capsys):
        schema_path = tmp_path / "tiny.yaml"
        schema_path.write_text(RECIPE)
        main(
            [
                "generate", str(schema_path),
                "--scale", "Person=20",
                "--out", str(tmp_path / "o"),
            ]
        )
        out = capsys.readouterr().out
        assert "'Person': 20" in out

    def test_bad_scale_entry(self, tmp_path):
        schema_path = tmp_path / "tiny.yaml"
        schema_path.write_text(RECIPE)
        with pytest.raises(SystemExit, match="TYPE=COUNT"):
            main(
                ["generate", str(schema_path), "--scale", "Person"]
            )

    def test_edgelist_format(self, tmp_path):
        schema_path = tmp_path / "tiny.yaml"
        schema_path.write_text(RECIPE)
        out = tmp_path / "o"
        main(
            [
                "generate", str(schema_path),
                "--format", "edgelist", "--out", str(out),
            ]
        )
        assert (out / "knows.edges").exists()

    def test_sharded_workers_same_output(self, tmp_path, capsys):
        """--shard-rows 64 --workers 2 runs out of core on a pool and
        writes the same files with the same contents as the in-memory
        run."""
        schema_path = tmp_path / "tiny.yaml"
        schema_path.write_text(RECIPE)
        serial_out = tmp_path / "serial"
        parallel_out = tmp_path / "parallel"
        assert main(
            ["generate", str(schema_path), "--out", str(serial_out)]
        ) == 0
        assert main(
            [
                "generate", str(schema_path), "--shard-rows", "64",
                "--workers", "2", "--out", str(parallel_out),
            ]
        ) == 0
        for name in ("Person.age.csv", "knows.csv"):
            assert (
                (serial_out / name).read_text()
                == (parallel_out / name).read_text()
            )

    def test_jsonl_format(self, tmp_path):
        schema_path = tmp_path / "tiny.yaml"
        schema_path.write_text(RECIPE)
        out = tmp_path / "o"
        main(
            [
                "generate", str(schema_path),
                "--format", "jsonl", "--out", str(out),
            ]
        )
        assert (out / "Person.jsonl").exists()

    def test_graphml_format(self, tmp_path):
        schema_path = tmp_path / "tiny.yaml"
        schema_path.write_text(RECIPE)
        out = tmp_path / "o"
        main(
            [
                "generate", str(schema_path),
                "--format", "graphml", "--out", str(out),
            ]
        )
        assert (out / "knows.graphml").exists()

    def test_chunk_size_does_not_change_bytes(self, tmp_path):
        schema_path = tmp_path / "tiny.yaml"
        schema_path.write_text(RECIPE)
        default_out = tmp_path / "default"
        chunked_out = tmp_path / "chunked"
        main(["generate", str(schema_path), "--out", str(default_out)])
        main(
            [
                "generate", str(schema_path),
                "--chunk-size", "3", "--out", str(chunked_out),
            ]
        )
        for name in ("Person.age.csv", "knows.csv"):
            assert (default_out / name).read_bytes() == \
                (chunked_out / name).read_bytes()

    def test_compress_flag(self, tmp_path):
        import gzip

        schema_path = tmp_path / "tiny.yaml"
        schema_path.write_text(RECIPE)
        plain_out = tmp_path / "plain"
        gz_out = tmp_path / "gz"
        main(["generate", str(schema_path), "--out", str(plain_out)])
        main(
            [
                "generate", str(schema_path),
                "--compress", "--out", str(gz_out),
            ]
        )
        packed = (gz_out / "knows.csv.gz").read_bytes()
        assert gzip.decompress(packed) == \
            (plain_out / "knows.csv").read_bytes()

    def test_bad_chunk_size_rejected(self, tmp_path):
        schema_path = tmp_path / "tiny.yaml"
        schema_path.write_text(RECIPE)
        with pytest.raises(SystemExit):
            build_parser().parse_args(
                ["generate", str(schema_path), "--chunk-size", "0"]
            )


class TestBoundaryErrors:
    """Bad input at the CLI boundary is an argparse-style error (a
    message and a non-zero exit), never a traceback from deep inside
    the library."""

    @pytest.mark.parametrize("argv, expected", [
        (["serve", "social_network", "--chunk-rows", "0"],
         "argument --chunk-rows: must be >= 1"),
        (["generate", "{tiny}", "--out", "{out}", "--shard-rows", "64",
          "--retries", "-1"],
         "argument --retries: must be >= 0"),
        (["generate", "{tiny}", "--out", "{out}", "--scale",
          "Person=abc"], "TYPE=COUNT"),
        (["generate", "{tiny}", "--out", "{out}", "--scale",
          "Person=-5"], "TYPE=COUNT"),
        (["generate", "{missing}", "--out", "{out}"],
         "scenario error: [Errno 2] No such file or directory"),
        (["generate", "{lfr}", "--out", "{out}", "--scale", "Person=12"],
         "scenario error: knows: lfr needs more than avg_degree=18 "
         "nodes, got 12"),
        (["scenario", "run", "social_network", "--scale", "Person=12",
          "--out", "{out}"],
         "scenario error: knows: lfr needs more than avg_degree=18 "
         "nodes, got 12"),
        (["serve", "social_network", "--scale", "Person=12",
          "--port", "0"],
         "scenario error: knows: lfr needs more than avg_degree=18 "
         "nodes, got 12"),
        (["generate", "{rmat}", "--out", "{out}"],
         "scenario error: knows: rmat needs a node count that is a "
         "power of two, got 50"),
        (["generate", "{sbm}", "--out", "{out}"],
         "scenario error: knows: sbm group sizes sum to 20, expected "
         "n=50"),
        (["scenario", "run", "web_graph_rmat", "--scale", "Page=1000",
          "--out", "{out}"],
         "scenario error: links: rmat needs a node count that is a power "
         "of two, got 1000"),
        (["scenario", "validate", "web_graph_rmat", "--scale",
          "Page=1000"],
         "scenario error: links: rmat needs a node count that is a power "
         "of two, got 1000"),
        (["serve", "web_graph_rmat", "--scale", "Page=1000", "--port", "0"],
         "scenario error: links: rmat needs a node count that is a power "
         "of two, got 1000"),
        (["example", "--persons", "5"],
         "schema error: knows: lfr needs more than avg_degree=20 nodes, "
         "got 5"),
        (["validate", "--persons", "10"],
         "schema error: knows: lfr needs more than avg_degree=20 nodes, "
         "got 10"),
        (["example", "--persons", "0"], "argument --persons: must be >= 1"),
        (["protocol", "--k", "0"], "argument --k: must be >= 1"),
        (["protocol", "--size", "-4"], "argument --size: must be >= 1"),
        (["protocol", "--size", "5"],
         "protocol error: lfr needs more than avg_degree=20 nodes, got 5"),
        (["serve", "social_network", "--port", "99999"],
         "argument --port: must be <= 65535, got 99999"),
        (["serve", "social_network", "--request-timeout", "-1"],
         "argument --request-timeout: must be a number of seconds > 0"),
        (["scenario", "run", "social_network", "--scale", "Person=200",
          "--out", "{out}", "--shard-rows", "64", "--inject-faults",
          "bogus"], "bad fault spec 'bogus'"),
        (["scenario", "run", "social_network", "--scale", "Person=200",
          "--out", "{out}", "--shard-rows", "64", "--inject-faults",
          "nope:1:crash"], "unknown fault site 'nope'"),
        (["generate", "{tiny}", "--out", "{tiny}/o"],
         "scenario error: [Errno 20] Not a directory"),
        (["generate", "{tiny}", "--out", "{out}", "--inject-faults",
          "export:0:ioerror"],
         "scenario error: [Errno 28] injected I/O fault "
         "'export:0:ioerror' at export:0"),
        (["example", "--workers", "2"], "unrecognized arguments: --workers"),
        (["validate", "--workers", "2"],
         "unrecognized arguments: --workers"),
        (["protocol", "--kind", "rmat", "--size", "64"],
         "protocol error: rmat needs at most 2**31 nodes (scale 31), got "
         "18446744073709551616"),
        # A parameter the generator rejects is caught when the task
        # graph is built, before any task runs, at every front end.
        (["scenario", "validate", "{recipe}"],
         "scenario error: knows: sbm: probabilities must lie in [0, 1]"),
        (["serve", "{recipe}", "--port", "0"],
         "scenario error: knows: sbm: probabilities must lie in [0, 1]"),
        (["generate", "{bad_sbm}", "--out", "{out}"],
         "scenario error: knows: sbm: probabilities must lie in [0, 1]"),
        (["generate", "{zero_fractions}", "--out", "{out}"],
         "scenario error: knows: sbm: fractions must be nonnegative with "
         "positive total mass"),
        (["generate", "{unknown_param}", "--out", "{out}"],
         "scenario error: knows: erdos_renyi_m: ErdosRenyiM got "
         "unexpected "
         "parameter 'bogus'"),
        (["generate", "{bad_uniform}", "--out", "{out}"],
         "scenario error: Person.age: uniform_int: need low < high"),
    ])
    def test_rejected_with_message(self, argv, expected, tmp_path,
                                   capsys):
        paths = {}
        bad_sbm = ("generator: sbm, params: {sizes: [10, 10], "
                   "probabilities: [[1.5, 0.1], [0.1, 0.5]]}")
        for key, old, new in [
            ("tiny", STRUCTURE, STRUCTURE),
            ("lfr", STRUCTURE, "generator: lfr, params: {avg_degree: 18}"),
            ("rmat", STRUCTURE, "generator: rmat, params: {edge_factor: 4}"),
            ("sbm", STRUCTURE, "generator: sbm, params: {sizes: [10, 10], "
                               "probabilities: [[0.5, 0.1], [0.1, 0.5]]}"),
            ("bad_sbm", STRUCTURE, bad_sbm),
            ("zero_fractions", STRUCTURE, "generator: sbm, params: "
             "{fractions: [0, 0], probabilities: [[0.5, 0.1], [0.1, 0.5]]}"),
            ("unknown_param", STRUCTURE, "generator: erdos_renyi_m, "
             "params: {edges_per_node: 3, bogus: 1}"),
            ("bad_uniform", "low: 18, high: 80", "low: 80, high: 18"),
        ]:
            paths[key] = tmp_path / f"{key}.yaml"
            paths[key].write_text(RECIPE.replace(old, new))
        paths["recipe"] = tmp_path / "bad_sbm.yaml"
        paths["recipe"].write_text(BAD_SBM_RECIPE)
        argv = [
            arg.format(missing=tmp_path / "no.yaml", out=tmp_path / "o",
                       **paths)
            for arg in argv
        ]
        with pytest.raises(SystemExit) as excinfo:
            main(argv)
        assert excinfo.value.code not in (0, None)
        # argparse prints to stderr and exits 2; the command bodies
        # exit with the message itself.
        assert expected in (
            capsys.readouterr().err + str(excinfo.value.code)
        )

    def test_malformed_repro_faults_exits_before_writing(
        self, tmp_path, capsys, monkeypatch
    ):
        monkeypatch.setenv("REPRO_FAULTS", "bogus")
        out = tmp_path / "o"
        with pytest.raises(SystemExit) as excinfo:
            main(["scenario", "run", "social_network", "--scale",
                  "Person=200", "--out", str(out), "--shard-rows", "64"])
        assert excinfo.value.code == 2
        assert "REPRO_FAULTS: bad fault spec 'bogus'" in (
            capsys.readouterr().err
        )
        assert not out.exists()

    @pytest.mark.parametrize("argv, expected", [
        (["generate", "{bad}", "--out", "{out}"],
         "scenario error: {bad}: line 2: unclosed bracket at end of "
         "document"),
        (["generate", "{tiny}", "--out", "{out}", "--resume", "{spool}"],
         "checkpoint error: malformed catalog"),
        (["scenario", "run", "social_network", "--scale", "Person=300",
          "--out", "{out}", "--resume", "{spool}"],
         "checkpoint error: malformed catalog"),
    ])
    def test_one_line_not_a_traceback(self, argv, expected, tmp_path):
        """A recipe syntax error or a malformed --resume catalog exits 1
        with one stderr line, as the interpreter prints it."""
        import os
        import subprocess
        import sys
        from pathlib import Path

        import repro

        schema_path = tmp_path / "tiny.yaml"
        schema_path.write_text(RECIPE)
        (tmp_path / "bad.yaml").write_text("scenario: x\nnodes: {")
        (tmp_path / "spool").mkdir()
        (tmp_path / "spool" / CHECKPOINT_NAME).write_text(
            '{"garbage": 1}\n'
        )
        paths = dict(tiny=schema_path, bad=tmp_path / "bad.yaml",
                     spool=tmp_path / "spool", out=tmp_path / "o")
        argv = [arg.format(**paths) for arg in argv]
        expected = expected.format(**paths)
        src = str(Path(repro.__file__).resolve().parents[1])
        proc = subprocess.run(
            [sys.executable, "-m", "repro.cli", *argv],
            capture_output=True, text=True,
            env={**os.environ, "PYTHONPATH": src},
        )
        assert proc.returncode == 1
        assert "Traceback" not in proc.stderr
        assert proc.stderr.count("\n") == 1
        assert proc.stderr.startswith(expected)


class TestOutOfCoreOnlyFlags:
    """--backend process / --spool-dir are only read in out-of-core
    mode; in-memory mode must refuse them instead of silently dropping
    them.  --retries / --inject-faults apply in memory too."""

    FLAGS = [
        ["--backend", "process"],
        ["--spool-dir", "spool"],
    ]

    #: accepted in memory: a retry budget, and a fault that only slows
    IN_MEMORY_FLAGS = [
        ["--retries", "2"],
        ["--inject-faults", "property:0:slow=0.01"],
    ]

    @staticmethod
    def _commands(tmp_path):
        schema_path = tmp_path / "tiny.yaml"
        schema_path.write_text(RECIPE)
        out = ["--out", str(tmp_path / "out")]
        return {
            "generate": ["generate", str(schema_path)] + out,
            "scenario run": [
                "scenario", "run", "social_network",
                "--scale", "Person=300", "--no-validate",
            ] + out,
            "scenario validate": [
                "scenario", "validate", "social_network",
                "--scale", "Person=300",
            ],
        }

    #: the flags as ``run_scenario`` keyword arguments.
    KWARGS = {
        "--backend": {"backend": "process"},
        "--spool-dir": {"spool_dir": "spool"},
        "--retries": {"retries": 2},
        "--inject-faults": {"faults": "property:0:slow=0.01"},
    }

    @pytest.mark.parametrize("flag", FLAGS, ids=lambda f: f[0])
    @pytest.mark.parametrize(
        "command",
        ["generate", "scenario run", "scenario validate", "library"],
    )
    def test_rejected_in_memory_mode(self, command, flag, tmp_path,
                                     capsys):
        """One refusal, one wording: argparse prints it for the CLI,
        ``run_scenario`` raises it for library callers."""
        if command == "library":
            from repro.scenarios import run_scenario

            with pytest.raises(ValueError) as excinfo:
                run_scenario(
                    "name: tiny\nnodes: {T: {}}\nscale: {T: 5}\n",
                    out_dir=tmp_path / "out", **self.KWARGS[flag[0]],
                )
            err = str(excinfo.value)
        else:
            argv = self._commands(tmp_path)[command] + flag
            with pytest.raises(SystemExit) as excinfo:
                main(argv)
            assert excinfo.value.code == 2
            err = capsys.readouterr().err
        assert f"{flag[0]} only applies to out-of-core mode" in err
        for enabler in ("--shard-rows", "--memory-budget", "--resume"):
            assert enabler in err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("flag", IN_MEMORY_FLAGS, ids=lambda f: f[0])
    @pytest.mark.parametrize(
        "command",
        ["generate", "scenario run", "scenario validate", "library"],
    )
    def test_accepted_in_memory_mode(self, command, flag, tmp_path):
        if command == "library":
            from repro.scenarios import compile_scenario, run_scenario
            from repro.scenarios.zoo import load_zoo

            run_scenario(
                compile_scenario(load_zoo("social_network"),
                                 scale={"Person": 300}),
                out_dir=tmp_path / "out", validate=False,
                **self.KWARGS[flag[0]],
            )
        else:
            assert main(self._commands(tmp_path)[command] + flag) == 0
        if command != "scenario validate":
            assert (tmp_path / "out").is_dir()

    @pytest.mark.parametrize("command", ["generate", "scenario run"])
    def test_accepted_in_out_of_core_mode(self, command, tmp_path):
        argv = self._commands(tmp_path)[command] + [
            "--shard-rows", "64", "--retries", "1",
            "--spool-dir", str(tmp_path / "spool"),
        ]
        assert main(argv) == 0
        assert (tmp_path / "spool" / CHECKPOINT_NAME).exists()


class TestProtocol:
    def test_prints_cdf_table(self, capsys):
        code = main(
            [
                "protocol", "--kind", "lfr", "--size", "300",
                "--k", "4", "--points", "5",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "LFR(0k,4)" in out or "LFR(" in out
        assert "expected-cdf" in out

    def test_matcher_choice(self, capsys):
        main(
            [
                "protocol", "--kind", "lfr", "--size", "300",
                "--k", "4", "--matcher", "random",
            ]
        )
        assert "matcher=random" in capsys.readouterr().out


class TestExample:
    def test_runs(self, capsys, tmp_path):
        code = main(
            [
                "example", "--persons", "200",
                "--out", str(tmp_path / "ex"),
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "running example" in out
        assert (tmp_path / "ex" / "knows.csv").exists()


class TestAnalyze:
    def test_prints_profile(self, tmp_path, capsys):
        from repro.io import write_edgelist
        from repro.structure import ErdosRenyiM

        table = ErdosRenyiM(seed=1, m=300).run(100)
        path = write_edgelist(table, tmp_path / "g.edges")
        code = main(["analyze", str(path)])
        assert code == 0
        out = capsys.readouterr().out
        assert "num_edges: 300" in out
        assert "average_clustering" in out

    def test_no_clustering_flag(self, tmp_path, capsys):
        from repro.io import write_edgelist
        from repro.structure import ErdosRenyiM

        table = ErdosRenyiM(seed=1, m=50).run(40)
        path = write_edgelist(table, tmp_path / "g.edges")
        main(["analyze", str(path), "--no-clustering"])
        assert "average_clustering" not in capsys.readouterr().out
