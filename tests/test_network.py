import math
import os

import pytest
from hypothesis import given, strategies as st

from gridrestore.network import (Bus, CaseParseError, DamageScenario, Generator,
                                 Line, Load, Network, PeriodSchedule,
                                 RestorationPlan, build_schedule, parse_case,
                                 random_damage, round_half_up,
                                 DEFAULT_ANGLE_DIFF_MAX)
from conftest import CASES_DIR, random_network, tiny3_network


def read_text(name):
    with open(os.path.join(CASES_DIR, name)) as f:
        return f.read()


def read_case(name):
    return parse_case(read_text(name))


class TestRounding:
    def test_half_up(self):
        assert round_half_up(2.5) == 3
        assert round_half_up(7.5) == 8
        assert round_half_up(3.8) == 4
        assert round_half_up(3.2) == 3
        assert round_half_up(0.0) == 0


class TestGoldenCases:
    def test_tiny3_exact(self):
        net = read_case("tiny3.m")
        assert net.base_mva == 100.0
        assert [b.id for b in net.buses] == [1, 2, 3]
        expect = [(1, 1, 2, -10.0, 1.5), (2, 1, 3, -5.0, 1.0), (3, 2, 3, -8.0, 1.2)]
        got = [(l.id, l.from_bus, l.to_bus, l.susceptance_b, l.thermal_limit)
               for l in net.lines]
        assert got == expect
        for l in net.lines:
            assert l.angle_diff_max == pytest.approx(30 * math.pi / 180)
        assert [(g.bus, g.p_max) for g in net.generators] == [(1, 2.0)]
        assert [(d.bus, d.p_demand) for d in net.loads] == [(2, 0.8), (3, 0.6)]

    def test_status0_branch_dropped(self):
        net = read_case("status0.m")
        got = [(l.id, l.from_bus, l.to_bus, l.susceptance_b, l.thermal_limit)
               for l in net.lines]
        assert got == [(1, 1, 2, -4.0, 2.5), (2, 3, 4, -2.5, 0.9),
                       (3, 1, 4, -5.0, 1.1)]
        assert net.lines[0].angle_diff_max == pytest.approx(20 * math.pi / 180)
        assert net.lines[1].angle_diff_max == pytest.approx(45 * math.pi / 180)
        assert [(g.bus, g.p_max) for g in net.generators] == [(1, 1.2), (3, 0.8)]
        assert [(d.bus, d.p_demand) for d in net.loads] == [(2, 0.5), (4, 0.3)]

    def test_status0_generator_dropped(self):
        # the second generator out of service, and the 3-4 branch unlimited
        with open(os.path.join(CASES_DIR, "status0.m")) as f:
            text = f.read()
        text = text.replace("\t3\t0\t0\t100\t-100\t1\t100\t1\t80",
                            "\t3\t0\t0\t100\t-100\t1\t100\t0\t80")
        text = text.replace("\t3\t4\t0\t0.4\t0\t90", "\t3\t4\t0\t0.4\t0\t0")
        net = parse_case(text)
        assert [(g.id, g.bus, g.p_max) for g in net.generators] == [(1, 1, 1.2)]
        # the cap for an unlimited rateA counts the generators in service only
        assert net.lines_by_id[2].thermal_limit == pytest.approx(1.2)

    def test_self_loop_branch_reports_location(self):
        with pytest.raises(CaseParseError, match="joins bus 3 to itself") as err:
            read_case("selfloop.m")
        assert (err.value.line_no, err.value.field) == (22, "branch")

    def test_default_angle_and_unlimited_rating(self):
        net = read_case("defaultangle.m")
        assert net.base_mva == 50.0
        l1, l2 = net.lines
        assert (l1.susceptance_b, l2.susceptance_b) == (-2.0, -4.0)
        # rateA <= 0 falls back to a cap that can never bind (total gen)
        assert l1.thermal_limit == pytest.approx(max(0.8, 1.0))
        assert l2.thermal_limit == pytest.approx(0.6)
        # angmin/angmax of 0/0 and +-360 both mean "unspecified"
        assert l1.angle_diff_max == DEFAULT_ANGLE_DIFF_MAX
        assert l2.angle_diff_max == DEFAULT_ANGLE_DIFF_MAX

    def test_rate_per_unit_conversion(self):
        net = read_case("status0.m")
        assert net.lines_by_id[1].thermal_limit == 250 / 100

    def test_unknown_bus_reports_location(self):
        text = ("mpc.baseMVA = 100;\n"
                "mpc.bus = [\n 1 3 0 0 0 0 1 1 0 230 1 1.1 0.9;\n];\n"
                "mpc.gen = [\n 1 0 0 0 0 1 100 1 50 0;\n];\n"
                "mpc.branch = [\n 1 99 0 0.1 0 50 0 0 0 0 1;\n];\n")
        with pytest.raises(CaseParseError, match="unknown bus 99"):
            parse_case(text)

    def test_zero_reactance_rejected(self):
        text = ("mpc.baseMVA = 100;\n"
                "mpc.bus = [\n 1 3 0 0 0 0 1 1 0 230 1 1.1 0.9;\n"
                " 2 1 10 0 0 0 1 1 0 230 1 1.1 0.9;\n];\n"
                "mpc.gen = [\n 1 0 0 0 0 1 100 1 50 0;\n];\n"
                "mpc.branch = [\n 1 2 0 0.0 0 50 0 0 0 0 1;\n];\n")
        with pytest.raises(CaseParseError, match="zero reactance"):
            parse_case(text)

    # (field, line of tiny3.m, index of the number on that line, value)
    NON_FINITE = [("baseMVA", 4, 2, "NaN;"), ("bus id", 8, 0, "Inf"), ("Pd", 9, 2, "NaN"), ("Pmax", 15, 8, "NaN"),
                  ("status", 15, 7, "NaN"),
                  ("x", 20, 3, "NaN"), ("rateA", 20, 5, "NaN"), ("status", 20, 10, "NaN"),
                  ("angmin", 20, 11, "-Inf"), ("angmax", 20, 12, "Inf")]

    @pytest.mark.parametrize("field, line_no, k, value", NON_FINITE)
    def test_non_finite_number_rejected(self, field, line_no, k, value):
        # unchecked, a NaN baseMVA was read as the default 100, an infinite
        # bus id overflowed int(), a NaN reactance reached the LP, a NaN Pd
        # dropped its load and a NaN rateA made the line unlimited
        with open(os.path.join(CASES_DIR, "tiny3.m")) as f:
            lines = f.read().splitlines()
        tokens = lines[line_no - 1].split()
        tokens[k] = value
        lines[line_no - 1] = " ".join(tokens)
        with pytest.raises(CaseParseError, match="not finite") as err:
            parse_case("\n".join(lines))
        assert (err.value.line_no, err.value.field) == (line_no, field)

    # (line of tiny3.m, index of the number on that line, value): a bus id
    # in the bus table, a generator's bus, a branch's from and to bus
    NON_INTEGRAL = [(10, 0, "3.7"), (15, 0, "1.5"), (20, 0, "1.25"), (21, 1, "3.5")]

    @pytest.mark.parametrize("line_no, k, value", NON_INTEGRAL)
    def test_non_integral_bus_id_rejected(self, line_no, k, value):
        # int() truncated 3.7 to 3, so a case whose bus 3 was written 3.7,
        # with branches 1 3.7 and 2 3.7, solved silently as bus 3
        with open(os.path.join(CASES_DIR, "tiny3.m")) as f:
            lines = f.read().splitlines()
        tokens = lines[line_no - 1].split()
        tokens[k] = value
        lines[line_no - 1] = " ".join(tokens)
        if line_no == 10:
            for i in (20, 21):  # the branches name bus 3 as 3.7 too
                lines[i] = lines[i].replace("\t3\t", f"\t{value}\t", 1)
        with pytest.raises(CaseParseError, match="bus id is not an integer") as err:
            parse_case("\n".join(lines))
        assert (err.value.line_no, err.value.field) == (line_no, "bus id")

    def test_missing_bus_table(self):
        with pytest.raises(CaseParseError, match="bus"):
            parse_case("mpc.baseMVA = 100;\nmpc.branch = [\n];\n")


TINY3_TABLES = {
    "bus": ["1 3 0 0 0 0 1 1 0 230 1 1.1 0.9",
            "2 1 80 0 0 0 1 1 0 230 1 1.1 0.9",
            "3 1 60 0 0 0 1 1 0 230 1 1.1 0.9"],
    "gen": ["1 0 0 100 -100 1 100 1 200 0"],
    "branch": ["1 2 0 0.1 0 150 0 0 0 0 1 -30 30",
               "1 3 0 0.2 0 100 0 0 0 0 1 -30 30",
               "2 3 0 0.125 0 120 0 0 0 0 1 -30 30"],
}


def opener_alone(name, rows):
    return [f"mpc.{name} = ["] + [f"  {r};" for r in rows] + ["];"]


def row_on_opener(name, rows):
    return [f"mpc.{name} = [{rows[0]};"] + [f"  {r};" for r in rows[1:]] + ["];"]


def closer_on_last_row(name, rows):
    return [f"mpc.{name} = ["] + [f"  {r};" for r in rows[:-1]] + [f"  {rows[-1]}];"]


def one_line(name, rows):
    # each ';' ends a row, so a whole table fits on one line
    return [f"mpc.{name} = [{'; '.join(rows)};];"]


def commented_rows(name, rows):
    return [f"mpc.{name} = ["] + [f"  {r}; % row {i} ]" for i, r in enumerate(rows)] + ["];"]


def tiny3_text(layout=opener_alone, before=(), after=(), **layouts):
    """tiny3.m's tables, each in ``layouts[name]`` or else ``layout``."""
    lines = ["function mpc = tiny3", "mpc.baseMVA = 100;", *before]
    for name, rows in TINY3_TABLES.items():
        lines += layouts.get(name, layout)(name, rows)
    return "\n".join(lines + list(after)) + "\n"


GENCOST = ["mpc.gencost = [2 0 0 3 0.11 5 0;", "  2 0 0 3 0.085 1.2 0;", "];"]


def unclosed(name, rows):
    return opener_alone(name, rows)[:-1]


def joined(*statements):
    """``statements``' lines as one text, a statement's first line joined
    to the line before it."""
    lines = list(statements[0])
    for more in statements[1:]:
        lines[-1] += " " + more[0]
        lines += more[1:]
    return lines


def closer_then_gen(name, rows):
    # the gen table follows the bus table's '];' on the same line
    return joined(opener_alone(name, rows), one_line("gen", TINY3_TABLES["gen"]))


# 2 buses, 1 generator and 1 line, a table after the bus table's '];' on
# its line, and the bus table after the baseMVA on its line
TWO_BUSES = ["1 3 0 0 0 0 1 1 0 230 1 1.1 0.9", "2 1 80 0 0 0 1 1 0 230 1 1.1 0.9"]
SHARED_LINES = [
    "mpc.bus = [" + "; ".join(TWO_BUSES) + "]; mpc.gen = [1 0 0 100 -100 1 100 1 200 0];\n"
    "mpc.branch = [\n 1 2 0 0.1 0 150 0 0 0 0 1 -30 30;\n];\n",
    "mpc.baseMVA = 100; mpc.bus = [" + "; ".join(TWO_BUSES) + "];\n"
    "mpc.gen = [1 0 0 100 -100 1 100 1 200 0];\nmpc.branch = [1 2 0 0.1 0 150 0 0 0 0 1 -30 30];\n",
]


# a row ends at a ';' or a newline; a comment runs to its line's end
ROW_ENDS = [";", "; ", "\n", ";\n", " ;\n\t", "; % row ] ; [\n", "\n% mpc.gen = [1 2 3];\n"]
# what may follow a statement; a scalar with no ';' takes a space at least
JOINERS = ["", " ", "\t", "\n", "\n\n", " % mpc.bus = [\n"]


@st.composite
def tiny3_statement_layouts(draw):
    """tiny3.m's statements, a skipped matrix among them, in any order,
    on shared or separate lines, their rows split by ';' or newlines."""
    statements = [("version", "'2'"), ("baseMVA", "100"), *TINY3_TABLES.items()]
    if draw(st.booleans()):
        statements.append(("gencost", ["2 0 0 3 0.11 5 0", "2 0 0 3 0.085 1.2 0"]))
    text = "function mpc = tiny3\n"
    for name, value in draw(st.permutations(statements)):
        if isinstance(value, str):
            end = draw(st.sampled_from([";", " ;", ""]))
            text += f"mpc.{name} = {value}{end}"
        else:
            ends = [draw(st.sampled_from(ROW_ENDS)) for _ in value[:-1]]
            ends.append(draw(st.sampled_from(ROW_ENDS + [""])))
            end = draw(st.sampled_from(["]", "];"]))
            text += (f"mpc.{name} = " + draw(st.sampled_from(["[", "[\n", "[ "]))
                     + "".join(row + e for row, e in zip(value, ends)) + end)
        text += draw(st.sampled_from([j for j in JOINERS if end or j]))
    return text


class TestTableLayouts:
    @pytest.mark.parametrize("text", [
        tiny3_text(opener_alone),
        tiny3_text(row_on_opener),
        tiny3_text(closer_on_last_row),
        tiny3_text(gen=one_line),
        tiny3_text(before=["mpc.gen = [];"]),  # an empty table adds no row
        tiny3_text(before=["mpc.gen = [ ];", "mpc.branch = [", "];"]),
        tiny3_text(before=GENCOST),  # a matrix that is not read
        tiny3_text(after=GENCOST),
        tiny3_text(commented_rows),  # a ']' in a comment closes nothing
        tiny3_text(bus=one_line),
        tiny3_text(branch=one_line),
        tiny3_text(one_line),
        read_text("tiny3_packed.m"),  # rows sharing lines, a generator out of service
        tiny3_text(bus=closer_then_gen, gen=lambda name, rows: []),
        tiny3_text(before=joined(GENCOST, one_line("gen", TINY3_TABLES["gen"])),
                   gen=lambda name, rows: []),
        "\n".join(joined(*(one_line(name, rows) for name, rows in TINY3_TABLES.items()),
                          ["mpc.baseMVA = 100;"])),
        read_text("tiny3_statements.m"),  # statements sharing lines
    ], ids=["opener-alone", "row-on-opener", "closer-on-last-row", "one-line",
            "empty-table", "empty-tables-spaced", "gencost-first", "gencost-last",
            "comment-after-row", "bus-on-one-line", "branch-on-one-line",
            "all-on-one-line", "packed-case-file", "gen-after-bus-closer",
            "gen-after-gencost-closer", "all-statements-on-one-line", "statements-case-file"])
    def test_layout_parses_to_tiny3(self, text):
        assert parse_case(text) == read_case("tiny3.m")

    @pytest.mark.parametrize("text", SHARED_LINES, ids=["gen-after-bus", "bus-after-base"])
    def test_statements_sharing_a_line(self, text):
        net = parse_case(text)
        assert (len(net.buses), len(net.generators), len(net.lines)) == (2, 1, 1)

    @pytest.mark.parametrize("statement", [
        "mpc.version = '2'; mpc.baseMVA = 50;",  # after another statement
        "mpc.baseMVA = 50",  # no ';': the end of the line ends it
        "mpc.baseMVA = 50 % MVA",
        "mpc.version = '2' mpc.baseMVA = 50;",  # the next statement ends a scalar
        "mpc.version =\nmpc.baseMVA = 50;",  # and so does its line's end
    ], ids=["after-version", "no-semicolon", "comment-no-semicolon", "after-open-version",
            "after-empty-version"])
    def test_base_mva_statement(self, statement):
        text = tiny3_text().replace("mpc.baseMVA = 100;", statement)
        net = parse_case(text)
        assert net.base_mva == 50.0
        assert [d.p_demand for d in net.loads] == [1.6, 1.2]

    @given(st.data())
    def test_any_statement_layout_parses_to_tiny3(self, data):
        assert parse_case(data.draw(tiny3_statement_layouts())) == read_case("tiny3.m")

    def test_rows_sharing_a_line_keep_its_number(self):
        # the second of two generators on one line was read as more fields
        # of the first
        two_gens = lambda name, rows: [
            "mpc.gen = [1 0 0 100 -100 1 100 1 200 0; 2 0 0 100 -100 1 100 1 50 0];"]
        net = parse_case(tiny3_text(gen=two_gens))
        assert [(g.id, g.bus, g.p_max) for g in net.generators] == [(1, 1, 2.0), (2, 2, 0.5)]
        lines = tiny3_text(bus=one_line).splitlines()
        at = lines.index("mpc.bus = [" + "; ".join(TINY3_TABLES["bus"]) + ";];")
        lines[at] = lines[at].replace("3 1 60", "3 1 6x0")
        with pytest.raises(CaseParseError, match="'6x0' in bus table") as e:
            parse_case("\n".join(lines))
        assert e.value.line_no == at + 1

    def test_last_assignment_of_a_table_wins(self):
        net = parse_case(read_text("tiny3.m") + "mpc.gen = [2 0 0 100 -100 1 100 1 50 0];\n")
        assert [(g.bus, g.p_max) for g in net.generators] == [(2, 0.5)]

    def test_malformed_value_on_opener_line(self):
        lines = tiny3_text(row_on_opener).splitlines()
        at = lines.index("mpc.bus = [" + TINY3_TABLES["bus"][0] + ";")
        lines[at] = lines[at].replace(" 230 ", " 2x0 ")
        with pytest.raises(CaseParseError, match="'2x0' in bus table") as e:
            parse_case("\n".join(lines))
        assert e.value.line_no == at + 1 and e.value.field == "bus"


def rows_of(table_rows):
    """A layout that writes ``table_rows`` in place of the table's rows."""
    return lambda name, rows: opener_alone(name, table_rows)


class TestCaseRejected:
    # tiny3_text() puts the baseMVA on line 2, the bus opener on line 3,
    # the gen opener on line 8 and the branch opener on line 11
    @pytest.mark.parametrize("text, message, field, line_no", [
        (tiny3_text().replace("baseMVA = 100", "baseMVA = 0"), "baseMVA must be positive",
         "baseMVA", 2),
        (tiny3_text().replace("baseMVA = 100", "baseMVA = -100"), "baseMVA must be positive",
         "baseMVA", 2),
        (tiny3_text(branch=lambda name, rows: []), "missing branch table", "branch", None),
        (tiny3_text(bus=rows_of(TINY3_TABLES["bus"] + ["4 1"])), "bus row too short", "bus", 7),
        (tiny3_text(gen=rows_of(["1 0 0 100 -100 1 100 1"])), "gen row too short", "gen", 9),
        (tiny3_text(branch=rows_of(["1 2 0"])), "branch row too short", "branch", 12),
        (tiny3_text(bus=rows_of(TINY3_TABLES["bus"] + TINY3_TABLES["bus"][1:2])),
         "duplicate bus id 2", "bus", 7),
        (tiny3_text(gen=rows_of(["9 0 0 100 -100 1 100 1 200 0"])),
         "unknown bus 9 in gen table", "gen", 9),
        (tiny3_text(branch=rows_of(["9 2 0 0.1 0 150 0 0 0 0 1 -30 30"])),
         "unknown bus 9 in branch table", "branch", 12),
        # a matrix runs to its ']', never into the next statement or past the text
        (tiny3_text(bus=unclosed), r"mpc\.bus matrix has no closing '\]'", "bus", 3),
        (tiny3_text(branch=unclosed), r"mpc\.branch matrix has no closing '\]'", "branch", 11),
        (tiny3_text(before=GENCOST[:-1]), r"mpc\.gencost matrix has no closing '\]'",
         "gencost", 3),
        (tiny3_text(after=GENCOST[:-1]), r"mpc\.gencost matrix has no closing '\]'",
         "gencost", 16),
        (tiny3_text().replace("baseMVA = 100;", "baseMVA = 1 00;"),
         "baseMVA is not one number", "baseMVA", 2),
        (tiny3_text().replace("baseMVA = 100;", "baseMVA = ;"),
         "baseMVA is not one number", "baseMVA", 2),
        (tiny3_text().replace("baseMVA = 100;", "baseMVA =\n100;"),
         "baseMVA is not one number", "baseMVA", 2),
    ], ids=["zero-base", "negative-base", "no-branch-table", "short-bus", "short-gen",
            "short-branch", "duplicate-bus", "gen-bus", "branch-from-bus",
            "unclosed-bus", "unclosed-branch-at-end", "unclosed-gencost",
            "unclosed-gencost-at-end", "base-of-two-numbers", "empty-base",
            "base-on-next-line"])
    def test_bad_case_rejected(self, text, message, field, line_no):
        with pytest.raises(CaseParseError, match=message) as err:
            parse_case(text)
        assert (err.value.field, err.value.line_no) == (field, line_no)


class TestNetworkValidation:
    def test_duplicate_bus(self):
        with pytest.raises(ValueError, match="duplicate bus"):
            Network(buses=(Bus(1), Bus(1)), lines=(), generators=(), loads=())

    def test_self_loop(self):
        with pytest.raises(ValueError, match="from_bus == to_bus"):
            Network(buses=(Bus(1),), lines=(Line(1, 1, 1, -1.0, 1.0),),
                    generators=(), loads=())

    def test_line_unknown_endpoint(self):
        with pytest.raises(ValueError, match="unknown bus"):
            Network(buses=(Bus(1),), lines=(Line(1, 1, 2, -1.0, 1.0),),
                    generators=(), loads=())

    @pytest.mark.parametrize("parts, message", [
        ({"buses": ()}, "at least one bus"),
        ({"lines": (Line(1, 1, 2, -1.0, 1.0), Line(1, 2, 1, -1.0, 1.0))}, "duplicate line ids"),
        ({"lines": (Line(1, 1, 2, -1.0, -0.5),)}, "thermal_limit < 0"),
        ({"lines": (Line(1, 1, 2, -1.0, 1.0, 0.0),)}, "angle_diff_max must be > 0"),
        ({"lines": (Line(1, 1, 2, -1.0, 1.0, -0.1),)}, "angle_diff_max must be > 0"),
        ({"generators": (Generator(1, 3, 1.0),)}, "generator 1: unknown bus"),
        ({"loads": (Load(1, 3, 1.0),)}, "load 1: unknown bus"),
        ({"generators": (Generator(1, 1, -1.0),)}, "generator 1: p_max < 0"),
        ({"loads": (Load(1, 2, -0.5),)}, "load 1: p_demand < 0"),
    ], ids=["no-buses", "duplicate-line", "negative-limit", "zero-angle", "negative-angle",
            "generator-bus", "load-bus", "negative-pmax", "negative-pd"])
    def test_rejects_bad_part(self, parts, message):
        two_buses = {"buses": (Bus(1), Bus(2)), "lines": (Line(1, 1, 2, -1.0, 1.0),),
                     "generators": (Generator(1, 1, 1.0),), "loads": (Load(1, 2, 0.5),)}
        with pytest.raises(ValueError, match=message):
            Network(**{**two_buses, **parts})

    def test_damage_names_an_unknown_line(self):
        with pytest.raises(ValueError, match="damaged line 9 not in network"):
            DamageScenario((1, 9)).validate(tiny3_network())

    def test_incidence_indices(self):
        net = tiny3_network()
        assert net.lines_at[1] == (1, 2)
        assert net.gens_at[1] == (1,)
        assert net.loads_at[2] == (1,)
        assert net.total_demand == pytest.approx(1.4)


class TestSchedule:
    def test_fully_ordered(self):
        assert build_schedule(5, 5).repair_budget == (1, 2, 3, 4, 5)

    def test_lumped(self):
        assert build_schedule(10, 4).repair_budget == (3, 5, 8, 10)

    def test_empty_damage(self):
        assert build_schedule(0, 3).repair_budget == (0, 0, 0)

    @given(st.integers(0, 60), st.integers(1, 20), st.floats(0.1, 10.0))
    def test_budget_properties(self, n, periods, hours):
        sched = build_schedule(n, periods, hours)
        assert sched.repair_budget[-1] == n
        assert all(a <= b for a, b in
                   zip(sched.repair_budget, sched.repair_budget[1:]))
        assert sched.delta == (hours,) * periods

    @pytest.mark.parametrize("n_periods, delta, budget, message", [
        (0, (), (), "n_periods must be >= 1"),
        (2, (1.0,), (1, 2), "lengths must equal n_periods"),
        (2, (1.0, 1.0), (2,), "lengths must equal n_periods"),
        (2, (1.0, 0.0), (1, 2), "durations must be positive"),
        (2, (-1.0, 1.0), (1, 2), "durations must be positive"),
    ], ids=["no-periods", "short-delta", "short-budget", "zero-duration",
            "negative-duration"])
    def test_bad_schedule_rejected(self, n_periods, delta, budget, message):
        with pytest.raises(ValueError, match=message):
            PeriodSchedule(n_periods, delta, budget)

    @pytest.mark.parametrize("n_damaged, n_periods, message", [
        (-1, 2, "n_damaged must be >= 0"), (3, 0, "n_periods must be >= 1"),
        (3, -2, "n_periods must be >= 1")])
    def test_bad_build_schedule_rejected(self, n_damaged, n_periods, message):
        with pytest.raises(ValueError, match=message):
            build_schedule(n_damaged, n_periods)

    def test_nonincreasing_budget_rejected(self):
        with pytest.raises(ValueError, match="nondecreasing"):
            PeriodSchedule(2, (1.0, 1.0), (2, 1))

    @given(st.integers(0, 12), st.integers(1, 12), st.booleans(),
           st.randoms(use_true_random=False))
    def test_bucket_restores_each_line_at_its_budget(self, n, periods, even, rng):
        if even:
            sched = build_schedule(n, periods)
        else:  # a nondecreasing budget that may leave periods empty
            budget = sorted(rng.randint(0, n) for _ in range(periods - 1)) + [n]
            sched = PeriodSchedule(periods, (1.0,) * periods, tuple(budget))
        order = rng.sample(range(1, 100), n)
        plan = sched.bucket(order)
        # line number r is restored in the first period k with R_k >= r
        first = {lid: next(k for k, R in enumerate(sched.repair_budget) if R >= r)
                 for r, lid in enumerate(order, start=1)}
        assert plan.periods == tuple(frozenset(lid for lid in order if first[lid] == k)
                                     for k in range(periods))
        # the plan of each stretch of the order between two budgets
        slices, prev = [], 0
        for rk in sched.repair_budget:
            slices.append(order[prev:rk])
            prev = rk
        assert plan == RestorationPlan.from_lists(slices)
        assert plan.ordered_lines() == [lid for p in slices for lid in sorted(p)]
        if n == periods and even:
            assert plan == RestorationPlan.from_lists([[lid] for lid in order])

    def test_bucket_needs_every_line_in_the_budget(self):
        with pytest.raises(ValueError, match="number of lines"):
            build_schedule(3, 2).bucket([1, 2])
        with pytest.raises(ValueError, match="number of lines"):
            build_schedule(3, 2).bucket([1, 2, 3, 4])


class TestRandomDamage:
    def test_full_fraction_damages_all(self, tiny3):
        dmg = random_damage(tiny3, 1.0, seed=3)
        assert set(dmg.damaged_lines) == {1, 2, 3}

    def test_deterministic(self, tiny3):
        a = random_damage(tiny3, 0.5, seed=11)
        b = random_damage(tiny3, 0.5, seed=11)
        assert a == b

    def test_38_line_fraction_counts(self):
        # 38-line chain network; counts follow the half-up rounding rule
        buses = tuple(Bus(i) for i in range(1, 40))
        lines = tuple(Line(i, i, i + 1, -5.0, 1.0) for i in range(1, 39))
        net = Network(buses=buses, lines=lines, generators=(), loads=())
        counts = [len(random_damage(net, f / 10, seed=0).damaged_lines)
                  for f in range(1, 11)]
        assert counts == [4, 8, 11, 15, 19, 23, 27, 30, 34, 38]

    def test_coverage_over_seeds(self):
        net = random_network(99, n_buses=6, n_lines=8)
        hit = set()
        for seed in range(1000):
            hit.update(random_damage(net, 0.25, seed).damaged_lines)
        assert hit == {l.id for l in net.lines}

    def test_fraction_out_of_range(self, tiny3):
        with pytest.raises(ValueError):
            random_damage(tiny3, 0.0, 1)
        with pytest.raises(ValueError):
            random_damage(tiny3, 1.5, 1)


class TestRestorationPlan:
    def test_partition_validation(self):
        dmg = DamageScenario((1, 2, 3))
        RestorationPlan.from_lists([[1], [2, 3]]).validate_against(dmg)
        with pytest.raises(ValueError, match="more than one period"):
            RestorationPlan.from_lists([[1], [1, 2], [3]]).validate_against(dmg)
        with pytest.raises(ValueError, match="cover"):
            RestorationPlan.from_lists([[1], [2]]).validate_against(dmg)

    def test_cumulative(self):
        plan = RestorationPlan.from_lists([[2], [5], [1]])
        assert plan.cumulative(0) == frozenset()
        assert plan.cumulative(2) == {2, 5}
        assert plan.ordered_lines() == [2, 5, 1]
