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
