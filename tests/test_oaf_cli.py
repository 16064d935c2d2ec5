"""Text format round-trips and the command-line interface."""

import pytest

from rightcon import (
    fixture,
    fixture_names,
    format_lasso,
    lasso,
    parse_lasso,
    parse_oaf,
    print_oaf,
)
from rightcon.cli import main
from rightcon.errors import ParseError, UnknownSymbol, ValidationError
from rightcon.model import alphabet

AB = alphabet("a", "b")


class TestLassoLiterals:
    def test_concatenated_single_chars(self):
        w = parse_lasso("ab:ba", AB)
        assert w.spoke == ("a", "b") and w.cycle == ("b", "a")

    def test_dotted(self):
        w = parse_lasso("a.b:b", AB)
        assert w.spoke == ("a", "b") and w.cycle == ("b",)

    def test_empty_spoke(self):
        assert parse_lasso(":a", AB).spoke == ()

    def test_missing_colon(self):
        with pytest.raises(ValidationError):
            parse_lasso("ab", AB)

    def test_empty_cycle(self):
        with pytest.raises(ValidationError):
            parse_lasso("a:", AB)

    def test_unknown_symbol(self):
        with pytest.raises(UnknownSymbol):
            parse_lasso("a:c", AB)

    def test_format_round_trip(self):
        for text in ("ab:ba", ":a", "aab:b"):
            assert format_lasso(parse_lasso(text, AB)) == text

    def test_multichar_symbols_use_dots(self):
        big = alphabet("foo", "b")
        w = lasso(("foo",), ("b", "foo"))
        text = format_lasso(w)
        assert text == "foo:b.foo"
        assert parse_lasso(text, big) == w


class TestOafRoundTrip:
    def test_all_fixtures(self):
        for name in fixture_names():
            a = fixture(name)
            b = parse_oaf(print_oaf(a))
            assert b.structure == a.structure, name
            assert b.acceptance == a.acceptance, name

    def test_canonical_output_stable(self):
        text = print_oaf(fixture("fig3_M"))
        assert print_oaf(parse_oaf(text)) == text

    def test_comments_and_blanks_ignored(self):
        text = print_oaf(fixture("fig2_B"))
        noisy = "# header\n\n" + text.replace("\n", "  # c\n\n", 3)
        assert parse_oaf(noisy).acceptance == fixture("fig2_B").acceptance

    def test_complete_sink(self):
        text = (
            "oaf 1\ntype buchi\nalphabet a b\nstates 1\ninitial 0\n"
            "trans 0 a 0\ncomplete sink\nacc states 0\n"
        )
        a = parse_oaf(text)
        assert a.structure.state_count == 2
        assert a.structure.step(0, "b") == 1

    def test_parity_sink_gets_default_color(self):
        text = (
            "oaf 1\ntype parity\nalphabet a\nstates 1\ninitial 0\n"
            "complete sink\nacc color 0 1\n"
        )
        a = parse_oaf(text)
        assert a.acceptance.colors == (1, 0)


class TestOafErrors:
    def check(self, text):
        with pytest.raises(ParseError):
            parse_oaf(text)

    def test_missing_header(self):
        self.check("type buchi\nalphabet a\nstates 1\ninitial 0\ntrans 0 a 0\n")

    def test_bad_version(self):
        self.check("oaf 2\n")

    def test_unknown_directive(self):
        self.check("oaf 1\nfrobnicate\n")

    def test_unknown_type(self):
        self.check("oaf 1\ntype rabin\n")

    def test_state_out_of_range(self):
        self.check(
            "oaf 1\ntype buchi\nalphabet a\nstates 1\ninitial 3\ntrans 0 a 0\n"
        )

    def test_unknown_symbol_in_trans(self):
        self.check(
            "oaf 1\ntype buchi\nalphabet a\nstates 1\ninitial 0\ntrans 0 z 0\n"
        )

    def test_missing_parity_color(self):
        self.check(
            "oaf 1\ntype parity\nalphabet a\nstates 1\ninitial 0\ntrans 0 a 0\n"
        )

    def test_missing_sections(self):
        self.check("oaf 1\ntype buchi\n")


class TestCli:
    @pytest.fixture()
    def fig3_path(self, tmp_path):
        p = tmp_path / "fig3_M.oaf"
        p.write_text(print_oaf(fixture("fig3_M")))
        return str(p)

    def run(self, capsys, *argv):
        code = main(list(argv))
        return code, capsys.readouterr()

    def test_validate(self, capsys, fig3_path):
        code, out = self.run(capsys, "validate", fig3_path)
        assert code == 0 and out.out.strip() == "valid=true"

    def test_member(self, capsys, fig3_path):
        code, out = self.run(capsys, "member", fig3_path, ":1")
        assert code == 0 and "accepted=true" in out.out
        code, out = self.run(capsys, "member", fig3_path, ":0")
        assert "accepted=false" in out.out

    def test_classify_output(self, capsys, fig3_path):
        code, out = self.run(capsys, "classify", fig3_path)
        assert code == 0
        lines = dict(
            line.split("=", 1) for line in out.out.splitlines() if "=" in line
        )
        assert lines["index"] == "3"
        assert lines["IM"] == "true" and lines["IP"] == "true"
        assert lines["IB"] == "false" and lines["IC"] == "false"
        assert lines["respective"] == "false"
        assert "cert_IM" in lines and "cert_IP" in lines

    def test_classify_conflict_witness(self, capsys, tmp_path):
        p = tmp_path / "fgaxa.oaf"
        p.write_text(print_oaf(fixture("fgaxa")))
        code, out = self.run(capsys, "classify", str(p))
        assert code == 0
        assert "witness_IT_accepted=" in out.out
        assert "witness_IT_rejected=" in out.out

    def test_quotient(self, capsys, tmp_path, fig3_path):
        out_path = str(tmp_path / "q.oaf")
        code, out = self.run(capsys, "quotient", fig3_path, "-o", out_path)
        assert code == 0
        assert "index=3" in out.out and "faithful=true" in out.out
        q = parse_oaf(open(out_path).read())
        assert q.structure.state_count == 3

    def test_equiv(self, capsys, tmp_path):
        pa = tmp_path / "a.oaf"
        pb = tmp_path / "b.oaf"
        pa.write_text(print_oaf(fixture("fig3_M")))
        pb.write_text(print_oaf(fixture("fig3_P")))
        code, out = self.run(capsys, "equiv", str(pa), str(pb))
        assert code == 0 and "equivalent=true" in out.out

    def test_equiv_witness(self, capsys, tmp_path, fig3_path):
        from rightcon import complement

        pb = tmp_path / "b.oaf"
        pb.write_text(print_oaf(complement(fixture("fig3_M"))))
        code, out = self.run(capsys, "equiv", fig3_path, str(pb))
        assert code == 0
        assert "equivalent=false" in out.out and "witness=" in out.out

    def test_op_complement(self, capsys, tmp_path, fig3_path):
        out_path = str(tmp_path / "c.oaf")
        code, out = self.run(
            capsys, "op", "complement", fig3_path, "-o", out_path
        )
        assert code == 0 and "states=" in out.out
        parse_oaf(open(out_path).read())

    def test_op_union(self, capsys, tmp_path, fig3_path):
        pb = tmp_path / "b.oaf"
        pb.write_text(print_oaf(fixture("fig3_P")))
        out_path = str(tmp_path / "u.oaf")
        code, out = self.run(
            capsys, "op", "union", fig3_path, str(pb), "-o", out_path
        )
        assert code == 0
        parse_oaf(open(out_path).read())

    def test_op_union_missing_operand(self, capsys, fig3_path):
        with pytest.raises(SystemExit) as e:
            main(["op", "union", fig3_path, "-o", "/tmp/x.oaf"])
        assert e.value.code == 2

    def test_alternation(self, capsys, fig3_path):
        code, out = self.run(capsys, "alternation", fig3_path)
        assert code == 0
        assert "alternations=2" in out.out and "polarity=-" in out.out

    def test_gen_wagner(self, capsys, tmp_path):
        out_path = str(tmp_path / "w.oaf")
        code, out = self.run(capsys, "gen", "wagner", "2", "1", "+", "-o", out_path)
        assert code == 0 and "states=6" in out.out
        parse_oaf(open(out_path).read())

    def test_gen_random(self, capsys, tmp_path):
        out_path = str(tmp_path / "r.oaf")
        code, out = self.run(
            capsys, "gen", "random", "--states", "4", "--seed", "9", "-o", out_path
        )
        assert code == 0
        a = parse_oaf(open(out_path).read())
        assert a.structure.state_count == 4

    def test_fixture_command(self, capsys, tmp_path):
        out_path = str(tmp_path / "f.oaf")
        code, out = self.run(capsys, "fixture", "L1", "-o", out_path)
        assert code == 0 and "name=L1" in out.out
        a = parse_oaf(open(out_path).read())
        assert a.structure.state_count == fixture("L1").structure.state_count

    def test_experiment_small(self, capsys):
        code, out = self.run(
            capsys, "experiment", "--sizes", "3", "--trials", "3", "--seed", "5"
        )
        assert code == 0
        lines = out.out.splitlines()
        assert lines[0] == "mode=exact" and lines[1] == "seed=5"
        assert lines[2].startswith("size=3 trials=3 isomorphic=")

    def test_missing_file_exit_3(self, capsys):
        code, out = self.run(capsys, "validate", "/nonexistent.oaf")
        assert code == 3 and "error:" in out.err

    def test_non_integer_color_exit_3(self, capsys, tmp_path):
        p = tmp_path / "bad.oaf"
        p.write_text("oaf 1\ntype parity\nalphabet a\nstates 1\ninitial 0\ntrans 0 a 0\nacc color 0 x\n")
        code, out = self.run(capsys, "validate", str(p))
        assert code == 3 and "line 7" in out.err and "'x'" in out.err

    def test_non_utf8_file_exit_3(self, capsys, tmp_path):
        p = tmp_path / "bad.oaf"
        p.write_bytes(b"oaf 1\ntype buchi \xff\n")
        code, out = self.run(capsys, "validate", str(p))
        assert code == 3 and "line 2" in out.err

    def test_parse_error_exit_3(self, capsys, tmp_path):
        p = tmp_path / "bad.oaf"
        p.write_text("oaf 2\n")
        code, out = self.run(capsys, "validate", str(p))
        assert code == 3

    def test_bad_lasso_exit_3(self, capsys, fig3_path):
        code, out = self.run(capsys, "member", fig3_path, "nocolon")
        assert code == 3

    def test_unknown_command_exit_2(self, capsys):
        with pytest.raises(SystemExit) as e:
            main(["frobnicate"])
        assert e.value.code == 2
