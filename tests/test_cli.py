import fcntl
import json
import logging
import os
import re
import signal
import subprocess
import sys
import time
from http.client import HTTPConnection
from pathlib import Path

import pytest

import komohe
from komohe import cli

from conftest import CORPUS_TSV, SIXROW_TSV


@pytest.fixture
def datadir(tmp_path):
    return tmp_path / "data"


def run(datadir, *argv):
    return cli.run(["--data", str(datadir), *argv])


@pytest.fixture
def loaded(datadir, tmp_path):
    tsv = tmp_path / "sixrow.tsv"
    tsv.write_text(SIXROW_TSV, encoding="utf-8")
    assert run(datadir, "import", str(tsv)) == 0
    return datadir


class TestImportExport:
    def test_import_reports_counts(self, datadir, tmp_path, capsys):
        tsv = tmp_path / "in.tsv"
        tsv.write_text(SIXROW_TSV, encoding="utf-8")
        assert run(datadir, "import", str(tsv)) == 0
        out = capsys.readouterr().out
        assert "crosswalks_created\t1" in out
        assert "mappings_added\t6" in out
        assert "errors\t0" in out

    def test_import_persists_to_data_dir(self, loaded):
        assert (loaded / "crosswalks.tsv").exists()
        assert (loaded / "A.terms").exists()
        assert (loaded / "B.terms").exists()

    def test_export_round_trips(self, loaded, capsys):
        assert run(loaded, "export") == 0
        text = capsys.readouterr().out
        assert text.startswith("#komohe-tsv v1\n")
        assert "A\thacker\t=\tB\thacking\thigh" in text

    def test_stray_tsv_in_data_dir_is_ignored(self, loaded, capsys):
        (loaded / "corpus.tsv").write_text(CORPUS_TSV, encoding="utf-8")
        assert run(loaded, "lookup", "hacker", "--relation", "=") == 0
        assert capsys.readouterr().out == "A\thacker\t=\tB\thacking\thigh\n"

    def test_data_dir_functions_stay_on_cli(self):
        # the benchmark's tracer wraps both names on komohe.cli
        assert cli.save_dataset is komohe.dataset.save_dataset
        assert callable(cli.load_dataset)

    def test_vocabulary_id_too_long_to_save_is_a_rejected_row(self, datadir, tmp_path, capsys):
        tsv = tmp_path / "long.tsv"
        longest = "b" * 245  # the longest id admitted: `<id>.terms` is 251 bytes
        rows = f"a\tx\t=\tb\ty\thigh\na\tz\t=\t{'é' * 60}\tw\thigh\na\tz\t=\t{longest}\tw\thigh\n"
        tsv.write_text("#komohe-tsv v1\n" + rows, encoding="utf-8")
        assert run(datadir, "import", str(tsv)) == 0
        captured = capsys.readouterr()
        assert "mappings_added\t2" in captured.out
        assert f"{tsv}:3: vocabulary id" in captured.err
        saved = {"a.terms", "b.terms", f"{longest}.terms", "crosswalks.tsv"}
        assert {p.name for p in datadir.iterdir()} == saved

    def test_import_missing_file_is_error(self, datadir, capsys):
        assert run(datadir, "import", "/no/such/file.tsv") == 1
        assert "error:" in capsys.readouterr().err


class TestTermsCommand:
    def test_new_vocabulary_with_language(self, datadir, tmp_path, capsys):
        listing = tmp_path / "swd.txt"
        listing.write_text("#terms swd\nSoziologie\nBildung\n", encoding="utf-8")
        assert run(datadir, "terms", "swd", str(listing), "--lang", "de") == 0
        assert "terms_added\t2" in capsys.readouterr().out
        # language survives the round trip through the data dir
        assert run(datadir, "translate", "x", "--to", "de") == 0

    def test_new_vocabulary_without_flags_keeps_the_header(self, datadir, tmp_path):
        listing = tmp_path / "swd.txt"
        listing.write_text("#terms swd lang=de name=Schlagwort\nSoziologie\n", encoding="utf-8")
        assert run(datadir, "terms", "swd", str(listing)) == 0
        header = (datadir / "swd.terms").read_text(encoding="utf-8").splitlines()[0]
        assert header == "#terms swd lang=de name=Schlagwort"

    @pytest.mark.parametrize("flag", ["--name", "--discipline"])
    def test_line_break_in_metadata_is_error_and_writes_nothing(
        self, datadir, tmp_path, flag, capsys
    ):
        listing = tmp_path / "t.terms"
        listing.write_text("#terms swd\nSoziologie\n", encoding="utf-8")
        assert run(datadir, "terms", "swd", str(listing), flag, "Sach\nwort") == 1
        assert capsys.readouterr().err.startswith("error:")
        assert not datadir.exists()


class TestLookup:
    def test_rows(self, loaded, capsys):
        assert run(loaded, "lookup", "hacker") == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines == [
            "A\thacker\t=\tB\thacking\thigh",
            "A\thacker\t^\tB\tcomputers + crime\tmedium",
            "A\thacker\t^\tB\tinternet + security\tmedium",
        ]

    def test_filters(self, loaded, capsys):
        assert run(loaded, "lookup", "hacker", "--relation", "=") == 0
        assert len(capsys.readouterr().out.splitlines()) == 1
        assert run(loaded, "lookup", "hacker", "--min-rating", "high") == 0
        assert len(capsys.readouterr().out.splitlines()) == 1

    def test_unknown_term_prints_nothing(self, loaded, capsys):
        assert run(loaded, "lookup", "ghost") == 0
        assert capsys.readouterr().out == ""

    def test_null_row_format(self, loaded, capsys):
        assert run(loaded, "lookup", "isdn device") == 0
        assert capsys.readouterr().out == "A\tisdn device\t0\t\t\t\n"

    def test_reverse(self, loaded, capsys):
        assert run(loaded, "reverse", "crime") == 0
        assert "computers + crime" in capsys.readouterr().out


class TestExpand:
    def test_default_equivalence(self, loaded, capsys):
        assert run(loaded, "expand", "hacker AND security") == 0
        captured = capsys.readouterr()
        assert captured.out == '(("hacker" OR "hacking") AND "security")\n'
        assert "+ 'hacker' <- 'hacking'" in captured.err

    def test_wider_relations(self, loaded, capsys):
        assert run(loaded, "expand", "hacker", "--relations", "=,^") == 0
        assert capsys.readouterr().out == (
            '("hacker" OR "hacking" OR ("computers" AND "crime")'
            ' OR ("internet" AND "security"))\n'
        )

    def test_parse_error_is_domain_error(self, loaded, capsys):
        assert run(loaded, "expand", "((broken") == 1
        assert "error:" in capsys.readouterr().err

    def test_cap_below_one_is_domain_error(self, loaded, capsys):
        assert run(loaded, "expand", "x", "--max", "0") == 1
        assert capsys.readouterr().err == "error: max_terms_per_leaf must be positive\n"

    def test_vocabs_items_are_stripped(self, datadir, tmp_path, capsys):
        tsv = tmp_path / "two.tsv"
        tsv.write_text(
            "#komohe-tsv v1\nA\thacker\t=\tB\thacking\thigh\nA\thacker\t=\tC\tpiratage\thigh\n",
            encoding="utf-8",
        )
        assert run(datadir, "import", str(tsv)) == 0
        capsys.readouterr()
        assert run(datadir, "expand", "hacker", "--vocabs", "B,C") == 0
        plain = capsys.readouterr().out
        assert plain == '("hacker" OR "hacking" OR "piratage")\n'
        assert run(datadir, "expand", "hacker", "--vocabs", "B, C") == 0
        assert capsys.readouterr().out == plain


class TestInfer:
    CHAIN = (
        "#komohe-tsv v1\n"
        "a\thacker\t=\tb\thacking\thigh\n"
        "b\thacking\t=\tc\tcomputer crime\thigh\n"
    )

    def test_infer_prints_tsv(self, datadir, tmp_path, capsys):
        tsv = tmp_path / "chain.tsv"
        tsv.write_text(self.CHAIN, encoding="utf-8")
        assert run(datadir, "import", str(tsv)) == 0
        capsys.readouterr()
        assert run(datadir, "infer", "--from", "a", "--to", "c", "--via", "b") == 0
        out = capsys.readouterr().out
        assert "a\thacker\t=\tc\tcomputer crime\tmedium\t# via:b" in out

    def test_promote_persists(self, datadir, tmp_path, capsys):
        tsv = tmp_path / "chain.tsv"
        tsv.write_text(self.CHAIN, encoding="utf-8")
        run(datadir, "import", str(tsv))
        assert (
            run(datadir, "infer", "--from", "a", "--to", "c", "--via", "b", "--promote")
            == 0
        )
        capsys.readouterr()
        assert run(datadir, "lookup", "hacker") == 0
        out = capsys.readouterr().out
        assert "a\thacker\t=\tc\tcomputer crime\tmedium" in out

    def test_promote_twice_adds_nothing_the_second_time(self, datadir, tmp_path, capsys):
        tsv = tmp_path / "chain.tsv"
        tsv.write_text(self.CHAIN, encoding="utf-8")
        run(datadir, "import", str(tsv))
        args = ("infer", "--from", "a", "--to", "c", "--via", "b", "--promote")
        assert run(datadir, *args) == 0
        assert "promoted 1 mappings into a-c" in capsys.readouterr().err
        saved = (datadir / "crosswalks.tsv").read_bytes()
        assert run(datadir, *args) == 0
        assert "promoted 0 mappings into a-c" in capsys.readouterr().err
        assert (datadir / "crosswalks.tsv").read_bytes() == saved

    def test_same_source_and_target_is_error_with_nothing_printed(self, datadir, tmp_path, capsys):
        tsv = tmp_path / "pair.tsv"
        tsv.write_text(self.CHAIN + "b\thacking\t=\ta\thacker\thigh\n", encoding="utf-8")
        assert run(datadir, "import", str(tsv)) == 0
        saved = (datadir / "crosswalks.tsv").read_bytes()
        capsys.readouterr()
        assert run(datadir, "infer", "--from", "a", "--to", "a", "--via", "b", "--promote") == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "crosswalk source and target must differ (got 'a')" in captured.err
        assert (datadir / "crosswalks.tsv").read_bytes() == saved

    def test_missing_crosswalk_is_error(self, loaded, capsys):
        assert run(loaded, "infer", "--from", "A", "--to", "X", "--via", "B") == 1


class TestCheck:
    def test_deterministic(self, loaded, tmp_path, capsys):
        corpus = tmp_path / "corpus.tsv"
        corpus.write_text(CORPUS_TSV, encoding="utf-8")
        args = (
            "check",
            "--crosswalk",
            "A-B",
            "--corpus",
            str(corpus),
            "--sample",
            "3",
            "--seed",
            "1",
        )
        assert run(loaded, *args) == 0
        first = capsys.readouterr().out
        assert run(loaded, *args) == 0
        assert capsys.readouterr().out == first
        assert first.startswith("mapping\tsource_hits\ttarget_hits\tverdict\n")

    def test_rejected_corpus_line_is_reported_with_its_number(self, loaded, tmp_path, capsys):
        corpus = tmp_path / "corpus.tsv"
        corpus.write_text(CORPUS_TSV + "d99\tB\n", encoding="utf-8")
        line_no = len(CORPUS_TSV.splitlines()) + 1
        args = ("check", "--crosswalk", "A-B", "--corpus", str(corpus), "--sample", "3")
        assert run(loaded, *args) == 0
        err = capsys.readouterr().err.splitlines()
        assert err[0] == f"{corpus}:{line_no}: expected 3 fields, got 2"

    def test_crosswalk_of_null_mappings_samples_none(self, datadir, tmp_path, capsys):
        tsv, corpus = tmp_path / "null.tsv", tmp_path / "corpus.tsv"
        tsv.write_text("#komohe-tsv v1\nA\tisdn device\t0\tB\t\t\n", encoding="utf-8")
        corpus.write_text(CORPUS_TSV, encoding="utf-8")
        assert run(datadir, "import", str(tsv)) == 0
        capsys.readouterr()
        args = ("check", "--crosswalk", "A-B", "--corpus", str(corpus), "--sample", "3")
        assert run(datadir, *args) == 0
        assert capsys.readouterr() == (
            "mapping\tsource_hits\ttarget_hits\tverdict\n",
            "sampled 0 mappings, empty-target rate 0.00\n",
        )


class TestVariants:
    def test_conflict_row(self, datadir, tmp_path, capsys):
        tsv = tmp_path / "variants.tsv"
        rows = "a\tx\t=\tc\tp\thigh\nb\tx\t=\tc\tq\thigh\nb\ty\t=\tc\tp\thigh\n"
        tsv.write_text("#komohe-tsv v1\n" + rows, encoding="utf-8")
        assert run(datadir, "import", str(tsv)) == 0
        capsys.readouterr()
        assert run(datadir, "variants", "--target", "c") == 0
        assert capsys.readouterr().out == "x\ta\tb\tc\tp\tq\n"


class TestSkos:
    def test_export_then_import(self, loaded, datadir, tmp_path, capsys):
        assert run(loaded, "skos-export") == 0
        nt = capsys.readouterr().out
        assert "exactMatch" in nt

        nt_file = tmp_path / "mappings.nt"
        nt_file.write_text(nt, encoding="utf-8")
        fresh = tmp_path / "fresh"
        assert cli.run(["--data", str(fresh), "skos-import", str(nt_file), "--source", "A", "--target", "B"]) == 0
        out = capsys.readouterr().out
        assert "mappings_added\t3" in out

    def test_skipped_predicate_is_reported_once(self, datadir, tmp_path, capsys, caplog):
        close_match = "http://www.w3.org/2004/02/skos/core#closeMatch"
        nt = tmp_path / "close.nt"
        nt.write_text(f"<urn:kos:A:x> <{close_match}> <urn:kos:B:y> .\n", encoding="utf-8")
        with caplog.at_level(logging.WARNING, logger="komohe"):
            assert run(datadir, "skos-import", str(nt), "--source", "A", "--target", "B") == 0
        err_lines = [line for line in capsys.readouterr().err.splitlines() if "closeMatch" in line]
        assert err_lines == [f"{nt}:1: skipped predicate {close_match}"]
        assert [r for r in caplog.records if r.name == "komohe.skos"] == []

    def test_equal_vocabularies_are_one_error_and_leave_the_data_dir(self, loaded, tmp_path, capsys):
        exact_match = "http://www.w3.org/2004/02/skos/core#exactMatch"
        nt = tmp_path / "same.nt"
        nt.write_text(
            f"<urn:kos:A:x> <{exact_match}> <urn:kos:A:y> .\n<urn:kos:A:z> <{exact_match}> <urn:kos:A:w> .\n",
            encoding="utf-8",
        )
        before = {path.name: path.read_bytes() for path in loaded.iterdir()}
        capsys.readouterr()
        assert run(loaded, "skos-import", str(nt), "--source", "A", "--target", "A") == 1
        captured = capsys.readouterr()
        assert (captured.out, captured.err) == ("", "error: crosswalk source and target must differ (got 'A')\n")
        assert {path.name: path.read_bytes() for path in loaded.iterdir()} == before


class TestStats:
    def test_table(self, loaded, capsys):
        assert run(loaded, "stats") == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0].startswith("#crosswalk\t")
        assert lines[1] == "A-B\t6\t1\t1\t1\t2\t1\t2\t2\t1\t1"


class TestExitCodes:
    def test_usage_error_is_2(self, capsys):
        assert cli.run(["bogus-command"]) == 2

    def test_missing_required_flag_is_2(self, loaded, capsys):
        assert run(loaded, "translate", "x") == 2

    def test_domain_error_is_1(self, loaded, capsys):
        assert run(loaded, "lookup", "x", "--relation", "?") == 1

    def test_serve_with_missing_config_is_1(self, datadir, capsys):
        assert run(datadir, "serve", "--config", "/no/such.conf") == 1


class TestEnvDataDir(object):
    def test_env_var_used_when_no_flag(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("KOMOHE_DATA", str(tmp_path / "envdata"))
        tsv = tmp_path / "t.tsv"
        tsv.write_text(SIXROW_TSV, encoding="utf-8")
        assert cli.run(["import", str(tsv)]) == 0
        assert (tmp_path / "envdata" / "crosswalks.tsv").exists()


class TestServeCommand:
    def test_port_zero_reaches_serve(self, loaded, monkeypatch):
        seen = []
        monkeypatch.setattr(cli, "serve", lambda config: seen.append(config) or 0)
        assert run(loaded, "serve", "--port", "0") == 0
        assert seen[0].port == 0

    def test_unknown_config_key_is_error(self, loaded, tmp_path, monkeypatch, capsys):
        monkeypatch.setattr(cli, "serve", lambda config: pytest.fail("unknown key accepted"))
        config = tmp_path / "serve.conf"
        config.write_text("port=0\nmax_expansion_term=8\n", encoding="utf-8")
        assert run(loaded, "serve", "--config", str(config)) == 1
        assert "error:" in capsys.readouterr().err

    def test_sigterm_stops_the_service(self, loaded, tmp_path):
        src = str(Path(komohe.__file__).resolve().parents[1])
        paths = [src, os.environ.get("PYTHONPATH")]
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, paths)))
        argv = ["--data", str(loaded), "serve", "--port", "0"]
        log = tmp_path / "serve.log"
        with log.open("w", encoding="utf-8") as err:
            proc = subprocess.Popen(
                [sys.executable, "-c", "from komohe.cli import main; main()", *argv],
                stdout=subprocess.DEVNULL,
                stderr=err,
                env=env,
            )
        try:
            deadline = time.monotonic() + 30
            while not (bound := re.search(r"serving on [^:\s]+:(\d+)", log.read_text("utf-8"))):
                assert proc.poll() is None and time.monotonic() < deadline, log.read_text("utf-8")
                time.sleep(0.05)
            conn = HTTPConnection("127.0.0.1", int(bound.group(1)), timeout=10)
            conn.request("GET", "/vocabularies")
            assert conn.getresponse().status == 200
            conn.close()
            proc.send_signal(signal.SIGTERM)
            assert proc.wait(timeout=10) == 0
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
        assert "shutting down" in log.read_text("utf-8")


class TestModuleEntryPoints:
    @pytest.mark.parametrize("module", ["komohe", "komohe.cli"])
    def test_python_dash_m_runs_the_cli(self, module, tmp_path):
        src = str(Path(komohe.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))

        def komohe_m(*argv):
            command = [sys.executable, "-m", module, "--data", str(tmp_path / "data"), *argv]
            return subprocess.run(command, capture_output=True, text=True, env=env, timeout=60)

        usage = komohe_m("--help")
        assert (usage.returncode, usage.stderr) == (0, "") and "usage: " in usage.stdout
        tsv = tmp_path / "sixrow.tsv"
        tsv.write_text(SIXROW_TSV, encoding="utf-8")
        assert komohe_m("import", str(tsv)).returncode == 0
        lookup = komohe_m("lookup", "hacker", "--relation", "=")
        assert (lookup.returncode, lookup.stdout) == (0, "A\thacker\t=\tB\thacking\thigh\n")


class TestRobustness:
    def test_deep_query_is_domain_error(self, loaded, capsys):
        assert run(loaded, "expand", "(" * 400 + "hacker" + ")" * 400) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and "Traceback" not in err

    def test_too_many_terms_is_domain_error(self, loaded, capsys):
        assert run(loaded, "expand", " ".join(["hacker"] * 1000)) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and "Traceback" not in err

    def test_serve_config_it_cannot_serve_with(self, loaded, tmp_path, monkeypatch, capsys):
        monkeypatch.setattr(cli, "serve", lambda config: pytest.fail("serve was reached"))
        config = tmp_path / "service.conf"
        config.write_text("read_timeout = -1\n")
        assert run(loaded, "serve", "--config", str(config)) == 1
        assert capsys.readouterr().err.startswith("error: read_timeout")

    def test_serve_config_bad_value_names_the_line(self, loaded, tmp_path, monkeypatch, capsys):
        monkeypatch.setattr(cli, "serve", lambda config: pytest.fail("serve was reached"))
        config = tmp_path / "service.conf"
        config.write_text("host = 127.0.0.1\nport = abc\n")
        assert run(loaded, "serve", "--config", str(config)) == 1
        err = capsys.readouterr().err
        assert err == "error: line 2: bad value for 'port': 'abc'\n"

    @pytest.mark.parametrize("port", ["70000", "-1"])
    def test_serve_port_flag_out_of_range(self, loaded, port, capsys):
        # the flag is checked like the config key, before anything is loaded or bound
        assert run(loaded, "serve", "--port", port) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: port {port} out of range") and "Traceback" not in err

    def test_lookup_null_relation(self, loaded, capsys):
        assert run(loaded, "lookup", "isdn device", "--relation", "0") == 0
        assert capsys.readouterr().out == "A\tisdn device\t0\t\t\t\n"

    def test_failed_replace_keeps_old_crosswalks(self, loaded, tmp_path, monkeypatch, capsys):
        before = (loaded / "crosswalks.tsv").read_bytes()
        real_replace = os.replace

        def failing_replace(src, dst):
            if Path(dst).name == "crosswalks.tsv":
                raise OSError("disk full")
            real_replace(src, dst)

        monkeypatch.setattr(os, "replace", failing_replace)
        extra = tmp_path / "extra.tsv"
        extra.write_text("#komohe-tsv v1\nA\tmodem\t=\tB\tnetworks\thigh\n", encoding="utf-8")
        assert run(loaded, "import", str(extra)) == 1
        assert "error:" in capsys.readouterr().err
        assert (loaded / "crosswalks.tsv").read_bytes() == before

    def modem_row(self, tmp_path):
        extra = tmp_path / "extra.tsv"
        extra.write_text("#komohe-tsv v1\nA\tmodem\t=\tB\tnetworks\thigh\n", encoding="utf-8")
        return str(extra)

    def test_directory_left_at_a_temp_name_does_not_block_the_save(self, loaded, tmp_path, capsys):
        (loaded / "crosswalks.tsv.tmp").mkdir()
        assert run(loaded, "import", self.modem_row(tmp_path)) == 0
        assert "A\tmodem\t=\tB\tnetworks\thigh" in (loaded / "crosswalks.tsv").read_text()

    def test_link_left_at_a_temp_name_is_not_written_through(self, loaded, tmp_path, capsys):
        outside = tmp_path / "outside.txt"
        outside.write_text("not komohe data\n", encoding="utf-8")
        (loaded / "crosswalks.tsv.tmp").symlink_to(Path("..") / "outside.txt")
        assert run(loaded, "import", self.modem_row(tmp_path)) == 0
        assert outside.read_text(encoding="utf-8") == "not komohe data\n"
        assert not (loaded / "crosswalks.tsv").is_symlink()
        assert "A\tmodem\t=\tB\tnetworks\thigh" in (loaded / "crosswalks.tsv").read_text()

    def test_failed_replace_leaves_no_temp_file(self, loaded, tmp_path, monkeypatch, capsys):
        before = {path.name: path.read_bytes() for path in loaded.iterdir()}

        def failing_replace(src, dst):
            raise OSError("disk full")

        monkeypatch.setattr(os, "replace", failing_replace)
        assert run(loaded, "import", self.modem_row(tmp_path)) == 1
        assert "error: disk full" in capsys.readouterr().err
        assert {path.name: path.read_bytes() for path in loaded.iterdir()} == before

    def test_saved_files_get_the_mode_the_umask_allows(self, loaded):
        umask = os.umask(0o077)
        os.umask(umask)
        for path in loaded.iterdir():
            assert path.stat().st_mode & 0o777 == 0o666 & ~umask, path.name

    def test_skos_term_with_join_is_rejected(self, datadir, tmp_path, capsys):
        nt = tmp_path / "plus.nt"
        exact_match = "http://www.w3.org/2004/02/skos/core#exactMatch"
        nt.write_text(f"<urn:kos:A:x> <{exact_match}> <urn:kos:B:a%20%2B%20b> .\n", encoding="utf-8")
        assert run(datadir, "skos-import", str(nt), "--source", "A", "--target", "B") == 0
        captured = capsys.readouterr()
        assert "mappings_added\t0" in captured.out
        assert f"{nt}:1:" in captured.err
        assert run(datadir, "lookup", "x") == 0
        assert capsys.readouterr().out == ""


class TestRunner:
    """run() loads the data dir once per command but serve, and saves it once
    for a command that writes, before the command's summary is printed."""

    CHAIN = TestInfer.CHAIN + "b\thacking\t=\ta\thacker\thigh\n"
    PROMOTE = ("infer", "--from", "a", "--to", "c", "--via", "b", "--promote")
    PROMOTED_TSV = "#komohe-tsv v1\na\thacker\t=\tc\tcomputer crime\tmedium\t# via:b\n"
    NEW_ROW = "#komohe-tsv v1\na\tcracker\t=\tb\thacking\tlow\n"  # not in CHAIN

    @pytest.fixture
    def workdir(self, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        Path("chain.tsv").write_text(self.CHAIN, encoding="utf-8")
        Path("new.tsv").write_text(self.NEW_ROW, encoding="utf-8")
        Path("corpus.tsv").write_text(CORPUS_TSV, encoding="utf-8")
        Path("swd.txt").write_text("#terms swd\nSoziologie\n", encoding="utf-8")
        exact_match = "http://www.w3.org/2004/02/skos/core#exactMatch"
        Path("m.nt").write_text(f"<urn:kos:X:x> <{exact_match}> <urn:kos:Y:y> .\n", encoding="utf-8")
        Path("bad.nt").write_bytes(b"\xff<urn:kos:X:x>\n")  # not UTF-8: the read raises
        assert cli.run(["--data", "data", "import", "chain.tsv"]) == 0
        capsys.readouterr()
        return tmp_path

    @pytest.mark.parametrize(
        "argv, code, loads, saves",
        [
            (("import", "new.tsv"), 0, 1, 1),
            (("import", "missing.tsv"), 1, 1, 0),
            (("export",), 0, 1, 0),
            (("terms", "swd", "swd.txt", "--lang", "de"), 0, 1, 1),
            (("lookup", "hacker"), 0, 1, 0),
            (("reverse", "hacking"), 0, 1, 0),
            (("expand", "hacker"), 0, 1, 0),
            (("translate", "hacker", "--to", "en"), 0, 1, 0),
            (PROMOTE[:-1], 0, 1, 0),
            (PROMOTE, 0, 1, 1),
            (("infer", "--from", "a", "--to", "a", "--via", "b", "--promote"), 1, 1, 0),
            (("variants", "--target", "b"), 0, 1, 0),
            (("check", "--crosswalk", "a-b", "--corpus", "corpus.tsv", "--sample", "1"), 0, 1, 0),
            (("skos-export",), 0, 1, 0),
            (("skos-import", "m.nt", "--source", "X", "--target", "Y"), 0, 1, 1),
            (("skos-import", "bad.nt", "--source", "X", "--target", "Y"), 1, 1, 0),
            (("stats",), 0, 1, 0),
            (("serve", "--port", "0"), 0, 0, 0),
        ],
        ids=lambda value: " ".join(value) if isinstance(value, tuple) else None,
    )
    def test_loads_and_saves(self, workdir, monkeypatch, argv, code, loads, saves):
        calls = {"load": 0, "save": 0}
        real_load, real_save = cli.load_dataset, cli.save_dataset

        def counting_load(args):
            calls["load"] += 1
            return real_load(args)

        def counting_save(dataset, directory):
            calls["save"] += 1
            real_save(dataset, directory)

        monkeypatch.setattr(cli, "load_dataset", counting_load)
        monkeypatch.setattr(cli, "save_dataset", counting_save)
        monkeypatch.setattr(cli, "serve", lambda config: 0)
        assert cli.run(["--data", "data", *argv]) == code
        assert calls == {"load": loads, "save": saves}

    @pytest.mark.parametrize(
        "argv, out",
        [
            (("import", "new.tsv"), ""),
            (("terms", "swd", "swd.txt", "--lang", "de"), ""),
            # infer streams its TSV before the save; only the summary waits for it
            (PROMOTE, PROMOTED_TSV),
            (("skos-import", "m.nt", "--source", "X", "--target", "Y"), ""),
        ],
        ids=["import", "terms", "infer", "skos-import"],
    )
    def test_failed_save_prints_no_summary(self, workdir, monkeypatch, capsys, argv, out):
        def disk_full(dataset, directory):
            raise OSError("disk full")

        monkeypatch.setattr(cli, "save_dataset", disk_full)
        assert cli.run(["--data", "data", *argv]) == 1
        captured = capsys.readouterr()
        assert captured.out == out
        assert captured.err == "error: disk full\n"

    @pytest.mark.parametrize(
        "argv, out, err",
        [
            # the fixture imported chain.tsv already, so each of its rows is a duplicate
            (
                ("import", "chain.tsv"),
                "crosswalks_created\t0\nmappings_added\t0\nerrors\t3\n",
                "chain.tsv:2: duplicate mapping 'hacker = hacking' in 'a-b'\n"
                "chain.tsv:3: duplicate mapping 'hacking = computer crime' in 'b-c'\n"
                "chain.tsv:4: duplicate mapping 'hacking = hacker' in 'b-a'\n",
            ),
            # the first run promotes the one inferred mapping, the second finds it stored
            (PROMOTE, PROMOTED_TSV, "promoted 0 mappings into a-c\n"),
        ],
        ids=["import", "infer"],
    )
    def test_a_writer_that_adds_nothing_leaves_the_files(
        self, workdir, monkeypatch, capsys, argv, out, err
    ):
        assert cli.run(["--data", "data", *argv]) == 0
        capsys.readouterr()

        def snapshot():
            return {
                path.name: (path.read_bytes(), path.stat().st_mtime_ns, path.stat().st_ino)
                for path in Path("data").iterdir()
            }

        before = snapshot()
        saves = []
        real_save = cli.save_dataset

        def counting_save(dataset, directory):
            saves.append(directory)
            real_save(dataset, directory)

        monkeypatch.setattr(cli, "save_dataset", counting_save)
        assert cli.run(["--data", "data", *argv]) == 0
        captured = capsys.readouterr()
        assert (captured.out, captured.err) == (out, err)
        assert saves == []
        assert snapshot() == before

    def test_a_writer_that_adds_nothing_makes_no_data_dir(self, workdir, capsys):
        Path("empty.tsv").write_text("#komohe-tsv v1\n", encoding="utf-8")
        assert cli.run(["--data", "fresh", "import", "empty.tsv"]) == 0
        assert capsys.readouterr().out == "crosswalks_created\t0\nmappings_added\t0\nerrors\t0\n"
        assert not Path("fresh").exists()


class TestOneWriter:
    """A writing command holds the data dir's writer lock from its load to its
    save; a second writer fails at once with one error line and changes nothing."""

    LOCK_FILE = ".komohe.lock"  # the name README gives
    ROWS = {"modem": "A\tmodem\t=\tB\tnetworks\thigh", "router": "A\trouter\t=\tB\tnetworks\tlow"}
    # `komohe` whose save waits a second first, so two writers started together overlap
    SLOW_WRITER = (
        "import sys, time\n"
        "from komohe import cli\n"
        "save = cli.save_dataset\n"
        "cli.save_dataset = lambda dataset, directory: time.sleep(1.0) or save(dataset, directory)\n"
        "sys.exit(cli.run(sys.argv[1:]))\n"
    )

    def row_file(self, tmp_path, term):
        tsv = tmp_path / f"{term}.tsv"
        tsv.write_text(f"#komohe-tsv v1\n{self.ROWS[term]}\n", encoding="utf-8")
        return tsv

    def test_a_held_lock_fails_the_writer_and_leaves_the_files(self, loaded, tmp_path, capsys):
        before = {path.name: path.read_bytes() for path in loaded.iterdir()}
        with open(loaded / self.LOCK_FILE, "w") as held:
            fcntl.flock(held, fcntl.LOCK_EX | fcntl.LOCK_NB)
            assert run(loaded, "import", str(self.row_file(tmp_path, "modem"))) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert re.fullmatch(r"error: data directory .* is in use by another writer\n", captured.err)
        after = {path.name: path.read_bytes() for path in loaded.iterdir()}
        assert after.pop(self.LOCK_FILE) == b""  # the holder's lock file is left to the holder
        assert after == before

    def test_two_writer_processes_lose_no_row(self, loaded, tmp_path):
        src = str(Path(komohe.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
        argv = [sys.executable, "-c", self.SLOW_WRITER, "--data", str(loaded), "import"]
        procs = {
            term: subprocess.Popen(
                [*argv, str(self.row_file(tmp_path, term))],
                stdout=subprocess.PIPE,
                stderr=subprocess.PIPE,
                text=True,
                env=env,
            )
            for term in self.ROWS
        }
        try:
            results = {term: (*proc.communicate(timeout=60), proc.returncode) for term, proc in procs.items()}
        finally:
            for proc in procs.values():
                if proc.poll() is None:
                    proc.kill()
                    proc.wait()
        saved = (loaded / "crosswalks.tsv").read_text(encoding="utf-8").splitlines()
        for term, (out, err, code) in results.items():
            if code == 0:
                assert "mappings_added\t1" in out.splitlines()
                assert self.ROWS[term] in saved
            else:
                assert (code, out) == (1, ""), err
                assert re.fullmatch(r"error: data directory .* is in use by another writer\n", err)
                assert self.ROWS[term] not in saved
        assert 0 in {code for _, _, code in results.values()}
        assert not (loaded / self.LOCK_FILE).exists()
