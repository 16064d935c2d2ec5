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
from rightcon.errors import CapacityExceeded, ParseError, UnknownSymbol, ValidationError
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

    HEAD = "oaf 1\ntype buchi\nalphabet a\nstates 1\ninitial 0\n"

    @pytest.mark.parametrize(
        "text, line_no, reason",
        [
            ("oaf 1\nalphabet\n", 2, "alphabet needs"),
            ("oaf 1\nstates x\n", 2, "states needs"),
            ("oaf 1\nstates ²\n", 2, "states needs"),
            ("oaf 1\nstates 1_0\n", 2, "states needs"),
            ("oaf 1\ninitial\n", 2, "initial needs"),
            ("oaf 1\nalphabet a\nstates 4\ninitial ٣\n", 4, "expected a state id"),
            (HEAD + "trans 0 a\n", 6, "trans needs"),
            (HEAD.replace("states 1", "states 2") + "trans 0 a 0\ntrans 0 a 1\n", 7, "second trans for state 0"),
            (HEAD + "trans +0 a 0\n", 6, "expected a state id"),
            (HEAD + "acc\n", 6, "empty acc"),
            (HEAD + "acc color 0\n", 6, "acc color needs"),
            (HEAD.replace("buchi", "parity") + "acc color 0 -1\n", 6, "expected a color"),
            (HEAD + "acc set\n", 6, "acc set needs"),
            (HEAD + "acc tset 0 a\n", 6, "acc tset needs"),
            (HEAD + "acc tset 0 a 0 ; 0 z 0\n", 6, "unknown symbol 'z'"),
            (HEAD + "acc foo\n", 6, "unknown acc form"),
            # a well-formed acc line the type does not read, wherever the
            # type line comes
            (HEAD.replace("buchi", "muller") + "acc states 0\n", 6, "acc states does not apply to type muller"),
            (HEAD + "acc states 0\nacc set 0\n", 7, "acc set does not apply to type buchi"),
            ("oaf 1\nalphabet a\nacc color 0 1\nacc tset 0 a 0\nstates 1\ninitial 0\ntype tmuller\n", 3, "acc color does not apply"),
            (HEAD + "complete\n", 6, "complete sink"),
            ("oaf 1\nalphabet a\nstates 1\ninitial 0\n", 0, "missing 'type'"),
            ("oaf 1\ntype buchi\nalphabet a\ninitial 0\n", 0, "missing 'states'"),
            ("oaf 1\ntype buchi\nalphabet a\nstates 1\n", 0, "missing 'initial'"),
            # a directive given at most once, given twice, fails at its
            # second line rather than overwriting the first
            ("oaf 1\noaf 1\n", 2, "second oaf line"),
            (HEAD + "type cobuchi\n", 6, "second type line"),
            (HEAD + "alphabet a b\n", 6, "second alphabet line"),
            (HEAD + "states 2\n", 6, "second states line"),
            (HEAD.replace("states 1", "states 2") + "initial 1\n", 6, "second initial line"),
            (HEAD + "complete sink\ncomplete sink\n", 7, "second complete line"),
            (HEAD.replace("buchi", "parity") + "acc color 0 1\nacc color 0 2\n", 7, "second acc color for state 0"),
        ],
    )
    def test_malformed_directive(self, text, line_no, reason):
        with pytest.raises(ParseError) as e:
            parse_oaf(text)
        assert e.value.line_no == line_no and reason in e.value.reason


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

    def test_classify_buchi_and_cobuchi_certificates(self, capsys, tmp_path):
        # aab is both IB and IC: each certificate, put on the written
        # quotient, recognizes the input's language
        p = tmp_path / "aab.oaf"
        p.write_text(print_oaf(fixture("aab")))
        code, out = self.run(capsys, "classify", str(p))
        assert code == 0
        lines = dict(line.split("=", 1) for line in out.out.splitlines() if "=" in line)
        assert lines["IB"] == "true" and lines["IC"] == "true"
        assert lines["cert_IB"] == "buchi 2"
        assert lines["cert_IC"] == "cobuchi 0 1 3"
        q_path = tmp_path / "q.oaf"
        code, _ = self.run(capsys, "quotient", str(p), "-o", str(q_path))
        assert code == 0
        quotient = [
            line for line in q_path.read_text().splitlines()
            if not line.startswith(("type", "acc"))
        ]
        for flag in ("IB", "IC"):
            kind, *states = lines[f"cert_{flag}"].split()
            c_path = tmp_path / f"{flag}.oaf"
            c_path.write_text(
                "\n".join(quotient + [f"type {kind}", "acc states " + " ".join(states)]) + "\n"
            )
            code, out = self.run(capsys, "equiv", str(p), str(c_path))
            assert code == 0 and "equivalent=true" in out.out, flag

    def test_capacity_exceeded_exit_4(self, capsys, monkeypatch, fig3_path):
        import rightcon.cli

        def exceed(acceptor, quotient):
            raise CapacityExceeded("profile monoid", 1)

        monkeypatch.setattr(rightcon.cli, "_is_respective", exceed)
        code, out = self.run(capsys, "classify", fig3_path)
        assert code == 4
        assert out.err.startswith("error:") and "profile monoid" in out.err

    def test_classify_it_certificate_past_capacity_exit_4(self, capsys, monkeypatch, tmp_path):
        # the IT certificate is built when it is first read; the command
        # reads it before printing, so stdout stays empty
        import rightcon.cli
        from rightcon import classify, random_dma

        p = tmp_path / "dma8.oaf"
        p.write_text(print_oaf(random_dma(8, "c/2")))
        monkeypatch.setattr(rightcon.cli, "classify", lambda a: classify(a, capacity=10_000))
        code, out = self.run(capsys, "classify", str(p))
        assert code == 4 and out.out == ""
        assert out.err.startswith("error:") and "loopable transition sets" in out.err

    def test_classify_computes_the_quotient_once(self, capsys, monkeypatch, fig3_path):
        import rightcon.congruence

        original = rightcon.congruence._quotient
        calls = []

        def counted(view):
            calls.append(view)
            return original(view)

        # classify and rightcon_quotient both build the quotient through it
        monkeypatch.setattr(rightcon.congruence, "_quotient", counted)
        code, _ = self.run(capsys, "classify", fig3_path)
        assert code == 0
        assert len(calls) == 1

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
        code, out = self.run(capsys, "gen", "wagner", "0", "0", "+", "-o", out_path)
        assert code == 0 and "states=1" in out.out

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

    def test_second_trans_exit_3(self, capsys, tmp_path):
        # the last trans line for a (state, symbol) used to win silently
        p = tmp_path / "bad.oaf"
        p.write_text("oaf 1\ntype buchi\nalphabet a\nstates 2\ninitial 0\ntrans 0 a 0\ntrans 0 a 1\ntrans 1 a 1\n")
        code, out = self.run(capsys, "validate", str(p))
        assert code == 3 and out.out == "" and out.err.startswith("error: line 7: second trans")

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

    @pytest.mark.parametrize(
        "argv",
        [
            ["experiment", "--sizes", "5..x"],
            ["experiment", "--sizes", "0..1"],
            ["experiment", "--sizes", "5..3"],
            ["experiment", "--sizes", "3,,4"],
            ["experiment", "--sizes", "3", "--trials", "-1"],
            ["experiment", "--sizes", "3", "--trials", "0"],
            ["gen", "random", "--states", "0", "--seed", "1", "-o", "/tmp/x.oaf"],
            ["gen", "random", "--states", "two", "--seed", "1", "-o", "/tmp/x.oaf"],
            ["experiment", "--sizes", "3", "--trials", "2", "--mode", "sampled", "--samples", "-5"],
            ["experiment", "--sizes", "3", "--trials", "2", "--mode", "sampled", "--samples", "0"],
            ["gen", "wagner", "-1", "0", "+", "-o", "/tmp/x.oaf"],
            ["gen", "wagner", "0", "-2", "+", "-o", "/tmp/x.oaf"],
        ],
    )
    def test_bad_arguments_exit_2(self, capsys, argv):
        with pytest.raises(SystemExit) as e:
            main(argv)
        assert e.value.code == 2
        err = capsys.readouterr().err
        assert any(m in err for m in ("positive integer", "non-negative integer", "no sizes"))
