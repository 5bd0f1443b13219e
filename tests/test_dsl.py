import json
import string
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from soclab.dsl import (
    Builtin,
    ParComp,
    Program,
    Ref,
    SeqComp,
    SystemDecl,
    Token,
    evaluate,
    parse,
    tokenize,
    unparse,
    unparse_expr,
)
from soclab.errors import DiagramSyntaxError, DiagramTypeError, DimensionError
from soclab.process import (
    cap,
    compose_par,
    compose_seq,
    cup,
    discard_process,
    identity_process,
    process_to_dict,
    processes_close,
    random_causal_channel,
    swap_process,
)
from soclab.tensor import System

from probe import allocates_nothing


def write_box(path, proc):
    path.write_text(json.dumps(process_to_dict(proc)))


# The character-at-a-time tokenizer the regular-expression one replaced, kept
# as it was as a reference.
PUNCT = ("->", "=", ";", ":", "@", "*", "(", ")", "[", "]", ",")


def reference_tokenize(text: str) -> list[Token]:
    toks = []
    line, col = 1, 1
    i = 0
    n = len(text)
    while i < n:
        c = text[i]
        if c == "\n":
            i += 1
            line += 1
            col = 1
            continue
        if c in " \t\r":
            i += 1
            col += 1
            continue
        if c == "#":
            while i < n and text[i] != "\n":
                i += 1
            continue
        if c == '"':
            j = i + 1
            while j < n and text[j] not in '"\n':
                j += 1
            if j >= n or text[j] != '"':
                raise DiagramSyntaxError("unterminated string", line, col)
            toks.append(Token("string", text[i + 1 : j], line, col))
            col += j + 1 - i
            i = j + 1
            continue
        if c.isdigit():
            j = i
            while j < n and text[j].isdigit():
                j += 1
            toks.append(Token("int", text[i:j], line, col))
            col += j - i
            i = j
            continue
        if c.isalpha() or c == "_":
            j = i
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            toks.append(Token("name", text[i:j], line, col))
            col += j - i
            i = j
            continue
        for p in PUNCT:
            if text.startswith(p, i):
                toks.append(Token(p, p, line, col))
                col += len(p)
                i += len(p)
                break
        else:
            raise DiagramSyntaxError(f"unexpected character {c!r}", line, col)
    toks.append(Token("eof", "", line, col))
    return toks


def outcome(tokenizer, text):
    try:
        return [(t.kind, t.value, t.line, t.col) for t in tokenizer(text)]
    except DiagramSyntaxError as err:
        return str(err)


# Printable ASCII plus letters, a decimal digit and numerals outside ASCII:
# 'Ä' and 'ö' start names, '٣' is an int, and '½' and 'Ⅻ' may only continue
# a name.
TEXT_CHARS = string.printable + "Äö٣½Ⅻ"
PIECES = ["system", "Q", "_x1", "Äö", "2", "٣", "½", "Ⅻ", " ", "\t", "\r", "\n", "# c", '"s"', '"', "->", "-", "*", ";", "[", ","]


class TestTokenizer:
    def test_positions(self):
        toks = tokenize("system Q = 2 ;\nf ; g")
        assert [(t.kind, t.value) for t in toks[:5]] == [
            ("name", "system"),
            ("name", "Q"),
            ("=", "="),
            ("int", "2"),
            (";", ";"),
        ]
        f_tok = toks[5]
        assert (f_tok.line, f_tok.col) == (2, 1)

    def test_comments_and_strings(self):
        toks = tokenize('# a comment\nbox f : Q -> Q @ "sub/f.json" ; # trailing\n')
        strings = [t for t in toks if t.kind == "string"]
        assert [t.value for t in strings] == ["sub/f.json"]

    def test_arrow_is_one_token(self):
        toks = tokenize("Q -> Q")
        assert [t.kind for t in toks] == ["name", "->", "name", "eof"]

    def test_unexpected_character(self):
        with pytest.raises(DiagramSyntaxError) as err:
            tokenize("f $ g")
        assert err.value.line == 1 and err.value.col == 3

    def test_unterminated_string(self):
        with pytest.raises(DiagramSyntaxError):
            tokenize('box f : Q -> Q @ "oops\n;')

    def test_blanks_advance_the_column_and_a_comment_does_not(self):
        toks = tokenize("a\t\r b # note")
        assert [(t.kind, t.col) for t in toks] == [("name", 1), ("name", 5), ("eof", 7)]

    def test_a_digit_int_cannot_read_is_a_syntax_error(self):
        # '²' is a digit to str.isdigit but not to int(); it must not become
        # an int token that fails later without a position.
        with pytest.raises(DiagramSyntaxError) as err:
            parse("system Q = ² ;")
        assert str(err.value) == "1:12: unexpected character '²'"

    @pytest.mark.skipif(not hasattr(sys, "get_int_max_str_digits"), reason="this Python reads integers of any length")
    def test_an_int_too_long_to_read_is_a_syntax_error(self):
        # 5000 digits pass int()'s limit of 4300; the error must carry the
        # int's position, not Python's bare message.
        with pytest.raises(DiagramSyntaxError) as err:
            parse("system Q =\n  " + "9" * 5000 + " ;")
        assert str(err.value) == "2:3: system size has too many digits (5000)"

    @given(st.one_of(st.text(TEXT_CHARS, max_size=40), st.lists(st.sampled_from(PIECES), max_size=12).map("".join)))
    @settings(max_examples=400)
    def test_same_tokens_or_error_as_the_reference(self, text):
        assert outcome(tokenize, text) == outcome(reference_tokenize, text)


class TestParser:
    def test_structure(self):
        prog = parse('system Q = 2 ;\nbox f : Q -> Q @ "f.json" ;\nf ; f')
        assert len(prog.decls) == 2
        assert prog.decls[0] == SystemDecl("Q", 2, 0, 0)
        assert isinstance(prog.expr, SeqComp)

    def test_par_binds_tighter(self):
        assert parse("a ; b * c").expr == SeqComp((ref("a"), ParComp((ref("b"), ref("c")))), ())

    def test_parens_override(self):
        assert parse("(a ; b) * c").expr == ParComp((SeqComp((ref("a"), ref("b")), ()), ref("c")))

    def test_a_chain_is_one_node_with_its_parts_in_order(self):
        e = parse("a ; b ; c\n; d").expr
        assert e == SeqComp(tuple(map(ref, "abcd")), ())
        assert e.ops == ((1, 3), (1, 7), (2, 1))
        assert parse("a * b * c * d").expr == ParComp(tuple(map(ref, "abcd")))

    def test_a_leading_bracketed_chain_is_spliced_and_a_later_one_nests(self):
        e = parse("(a ; b) ; c").expr
        assert e == parse("a ; b ; c").expr and e.ops == ((1, 4), (1, 9))
        assert parse("(a * b) * c").expr == parse("a * b * c").expr
        assert parse("a ; (b ; c)").expr == SeqComp((ref("a"), SeqComp((ref("b"), ref("c")), ())), ())
        assert parse("a ; (b ; c)").expr != parse("a ; b ; c").expr
        assert parse("a * (b * c)").expr != parse("a * b * c").expr

    def test_nesting_past_the_limit_is_a_syntax_error(self):
        ok = "(" * 100 + "f" + ")" * 100
        assert parse(ok).expr == Ref("f", 0, 0)
        with pytest.raises(DiagramSyntaxError) as err:
            parse("system Q = 2 ;\n" + "(" * 2000 + "id[Q]" + ")" * 2000)
        assert str(err.value) == "2:101: parentheses nested more than 100 deep"

    def test_builtin_arity(self):
        assert parse("swap[A, B]").expr == Builtin("swap", ("A", "B"), 0, 0)
        with pytest.raises(DiagramSyntaxError):
            parse("swap[A]")
        with pytest.raises(DiagramSyntaxError):
            parse("id[A, B]")
        with pytest.raises(DiagramSyntaxError):
            parse("id ; f")

    def test_semicolon_is_infix_only(self):
        with pytest.raises(DiagramSyntaxError):
            parse("f ;")
        with pytest.raises(DiagramSyntaxError):
            parse("; f")

    def test_declarations_precede_expression(self):
        with pytest.raises(DiagramSyntaxError):
            parse("f ; g\nsystem Q = 2 ;")

    def test_missing_pieces(self):
        for bad in [
            "system Q 2 ;",
            "system Q = 2",
            'box f : -> Q @ "f.json" ;',
            'box f : Q -> Q "f.json" ;',
            "f ; (g",
            "f g",
        ]:
            with pytest.raises(DiagramSyntaxError):
                parse(bad)

    def test_empty_program(self):
        assert parse("# nothing here\n") == Program((), None)

    def test_readme_example_parses(self):
        readme = (Path(__file__).parent.parent / "README.md").read_text()
        block = readme.split("## Diagram language\n\n```\n", 1)[1].split("```", 1)[0]
        prog = parse(block)
        assert [d.name for d in prog.decls] == ["Q", "noise"]
        assert isinstance(prog.expr, SeqComp)


EXPR_NAMES = st.sampled_from(["f", "g", "h"])
SYS_NAMES = st.sampled_from(["A", "B"])


def ref(name):
    return Ref(name, 0, 0)


def exprs():
    leaves = st.one_of(
        st.builds(ref, EXPR_NAMES),
        st.builds(lambda a: Builtin("id", (a,), 0, 0), SYS_NAMES),
        st.builds(lambda a, b: Builtin("swap", (a, b), 0, 0), SYS_NAMES, SYS_NAMES),
        st.builds(lambda a: Builtin("cup", (a,), 0, 0), SYS_NAMES),
    )

    def chain(kind, parts):
        # The parser splices a leading chain of its parent's kind, so a
        # node's first part is never of that kind.
        if isinstance(parts[0], kind):
            parts = [*parts[0].parts, *parts[1:]]
        return SeqComp(tuple(parts), ((0, 0),) * (len(parts) - 1)) if kind is SeqComp else ParComp(tuple(parts))

    def chains(inner):
        parts = st.lists(inner, min_size=2, max_size=4)
        return st.one_of(st.builds(chain, st.just(SeqComp), parts), st.builds(chain, st.just(ParComp), parts))

    return st.recursive(leaves, chains, max_leaves=12)


class TestUnparse:
    @given(exprs())
    def test_round_trip(self, e):
        prog = Program((), e)
        assert parse(unparse(prog)) == prog

    def test_brackets_only_what_the_grammar_needs(self):
        e = parse("(a ; b) ; c * (d * e) ; (f ; g) * h ; (i ; j)").expr
        assert unparse_expr(e) == "a ; b ; c * (d * e) ; (f ; g) * h ; (i ; j)"

    @pytest.mark.parametrize("n", [150, 1200])
    def test_a_long_chain_prints_and_parses_back(self, n):
        # A left spine past the parser's nesting bound (150) and past
        # Python's recursion limit (1200), compared as trees and as text.
        prog = parse("system Q = 2 ;\n" + " ; ".join(["id[Q]"] * n))
        text = unparse(prog)
        assert parse(text) == prog
        assert unparse(parse(text)) == text
        assert text.count("(") == 0

    def test_parentheses_nested_to_the_limit_compare_and_print(self):
        def nested(inner):
            return "system Q = 2 ;\n" + "id[Q] ; (" * 100 + inner + ")" * 100 + "\n"

        prog = parse(nested("id[Q] ; id[Q]"))
        assert parse(nested("id[Q] ; id[Q]")) == prog
        assert parse(nested("id[Q] ; cap[Q]")) != prog
        assert unparse(prog) == nested("id[Q] ; id[Q]")

    def test_long_chains_that_differ_at_the_far_end_compare_unequal(self):
        terms = ["id[Q]"] * 1200
        prog = parse("system Q = 2 ;\n" + " ; ".join(terms))
        assert parse("system Q = 2 ;\n" + " ; ".join(["cap[Q]"] + terms[1:])) != prog
        assert parse("system Q = 2 ;\n" + " ; ".join(terms[:-1] + ["id[R]"])) != prog
        assert parse("system Q = 2 ;\n" + " * ".join(terms)) != prog

    def test_declarations_round_trip(self):
        src = 'system Q = 2 ;\nsystem R = 3 ;\nbox s : I -> Q * R @ "s.json" ;\ns ; discard[Q] * id[R]\n'
        prog = parse(src)
        assert parse(unparse(prog)) == prog

    def test_unit_type_prints_as_i(self):
        src = 'system Q = 2 ;\nbox e : Q -> I @ "e.json" ;\n'
        assert 'box e : Q -> I @ "e.json" ;' in unparse(parse(src))


class TestEvaluation:
    def test_yanking(self):
        got = evaluate("system Q = 2 ;\n(id[Q] * cup[Q]) ; (cap[Q] * id[Q])")
        assert processes_close(got, identity_process(System((2,))), eps=1e-12)

    def test_builtins_match_constructors(self):
        q, r = System((2,)), System((3,))
        cases = [
            ("id[Q]", identity_process(q)),
            ("swap[Q, R]", swap_process(q, r)),
            ("cup[R]", cup(r)),
            ("cap[Q]", cap(q)),
            ("discard[R]", discard_process(r)),
        ]
        for src, want in cases:
            got = evaluate(f"system Q = 2 ;\nsystem R = 3 ;\n{src}")
            assert processes_close(got, want, eps=0.0)

    def test_box_loading_and_use(self, tmp_path):
        f = random_causal_channel(System((2,)), System((3,)), seed=4)
        write_box(tmp_path / "f.json", f)
        src = 'system Q = 2 ;\nsystem R = 3 ;\nbox f : Q -> R @ "f.json" ;\nf * f'
        got = evaluate(src, base_dir=str(tmp_path))
        assert processes_close(got, compose_par(f, f), eps=1e-12)

    def test_box_in_subdirectory(self, tmp_path):
        (tmp_path / "sub").mkdir()
        f = random_causal_channel(System((2,)), System((2,)), seed=5)
        write_box(tmp_path / "sub" / "f.json", f)
        src = 'system Q = 2 ;\nbox f : Q -> Q @ "sub/f.json" ;\nf'
        assert processes_close(evaluate(src, base_dir=str(tmp_path)), f, eps=1e-12)

    def test_state_box_has_unit_input(self, tmp_path):
        s = cup(System((2,)))
        write_box(tmp_path / "s.json", s)
        src = 'system Q = 2 ;\nbox s : I -> Q * Q @ "s.json" ;\ns ; cap[Q]'
        got = evaluate(src, base_dir=str(tmp_path))
        assert got.in_sys.dims == () and got.out_sys.dims == ()
        assert np.isclose(got.choi[0, 0], 4.0)

    def test_declared_type_must_match_file(self, tmp_path):
        f = random_causal_channel(System((2,)), System((2,)), seed=6)
        write_box(tmp_path / "f.json", f)
        src = 'system R = 3 ;\nbox f : R -> R @ "f.json" ;\nf'
        with pytest.raises(DiagramTypeError):
            evaluate(src, base_dir=str(tmp_path))

    def test_wire_mismatch_reported_with_position(self):
        src = "system Q = 2 ;\nsystem R = 3 ;\nid[Q] ; id[R]"
        with pytest.raises(DiagramTypeError) as err:
            evaluate(src)
        assert err.value.line == 3
        assert "(2,)" in str(err.value) and "(3,)" in str(err.value)

    @pytest.mark.parametrize("chain, where", [("id[Q] ; id[Q]\n  ; id[R]", (4, 3)), ("(id[Q] ; id[Q]) ; id[R] ; id[R]", (3, 17))])
    def test_a_mismatch_in_a_chain_is_reported_at_its_own_semicolon(self, chain, where):
        with pytest.raises(DiagramTypeError) as err:
            evaluate("system Q = 2 ;\nsystem R = 3 ;\n" + chain)
        assert (err.value.line, err.value.col) == where

    def test_name_errors(self):
        with pytest.raises(DiagramTypeError):
            evaluate("id[Q]")
        with pytest.raises(DiagramTypeError) as err:
            evaluate("system Q = 2 ;\nQ")
        assert "system" in str(err.value)
        with pytest.raises(DiagramTypeError):
            evaluate("system Q = 2 ;\nsystem Q = 3 ;\nid[Q]")
        with pytest.raises(DiagramTypeError):
            evaluate("system id = 2 ;")
        with pytest.raises(DiagramTypeError):
            evaluate("system Q = 0 ;")

    def test_file_problems_propagate(self, tmp_path):
        (tmp_path / "junk.json").write_text("{ not json")
        src = 'system Q = 2 ;\nbox f : Q -> Q @ "junk.json" ;\nf'
        with pytest.raises(json.JSONDecodeError):
            evaluate(src, base_dir=str(tmp_path))
        src = 'system Q = 2 ;\nbox f : Q -> Q @ "missing.json" ;\nf'
        with pytest.raises(OSError):
            evaluate(src, base_dir=str(tmp_path))

    def test_a_long_chain_evaluates_without_recursion(self):
        # A left spine of 1200 compositions, past Python's recursion limit.
        got = evaluate("system Q = 2 ;\n" + " ; ".join(["id[Q]"] * 1200))
        want = identity_process(System((2,)))
        assert got.in_sys == want.in_sys and got.out_sys == want.out_sys
        assert np.array_equal(got.choi, want.choi)

    def test_parentheses_nested_to_the_limit_evaluate(self):
        got = evaluate("system Q = 2 ;\n" + "id[Q] ; (" * 100 + "id[Q] ; id[Q]" + ")" * 100)
        want = identity_process(System((2,)))
        assert got.in_sys == want.in_sys and got.out_sys == want.out_sys
        assert np.array_equal(got.choi, want.choi)

    def test_chains_compose_in_the_order_they_are_bracketed(self, tmp_path):
        write_box(tmp_path / "f.json", random_causal_channel(System((2,)), System((2,)), seed=8))
        decls = 'system Q = 2 ;\nbox f : Q -> Q @ "f.json" ;\n'
        f = evaluate(decls + "f", base_dir=str(tmp_path))
        assert parse(decls + "f ; (f ; f)") != parse(decls + "f ; f ; f")
        assert parse(decls + "(f ; f) ; f") == parse(decls + "f ; f ; f")
        nested = evaluate(decls + "f ; (f ; f)", base_dir=str(tmp_path))
        assert np.array_equal(nested.choi, compose_seq(f, compose_seq(f, f)).choi)
        spliced = evaluate(decls + "(f ; f) ; f", base_dir=str(tmp_path))
        assert np.array_equal(spliced.choi, compose_seq(compose_seq(f, f), f).choi)
        assert np.array_equal(spliced.choi, evaluate(decls + "f ; f ; f", base_dir=str(tmp_path)).choi)

    def test_declarations_only(self):
        assert evaluate("system Q = 2 ;") is None

    @pytest.mark.parametrize(
        "d,builtin",
        [(10**6, b) for b in ("id[Q]", "cup[Q]", "cap[Q]", "discard[Q]", "swap[Q, Q]")]
        + [(91, b) for b in ("id[Q]", "cup[Q]", "cap[Q]", "swap[Q, Q]")],
    )
    def test_oversized_builtins_raise_before_allocating(self, d, builtin):
        # id[Q] at d = 91 would take 8281**2 complex entries (about 1.1 GB).
        with allocates_nothing(), pytest.raises(DimensionError, match="exceeds limit"):
            evaluate(f"system Q = {d} ;\n{builtin}")

    def test_discard_composes_to_partial_trace(self, tmp_path):
        f = random_causal_channel(System((2,)), System((2, 3)), seed=7)
        write_box(tmp_path / "f.json", f)
        src = (
            "system Q = 2 ;\nsystem R = 3 ;\n"
            'box f : Q -> Q * R @ "f.json" ;\n'
            "f ; (id[Q] * discard[R])"
        )
        got = evaluate(src, base_dir=str(tmp_path))
        assert got.out_sys.dims == (2,)
