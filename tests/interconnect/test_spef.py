"""Round-trip and error-handling tests for the SPEF subset."""

import pytest

from repro.errors import InterconnectError
from repro.interconnect.generate import NetGenerator
from repro.interconnect.metrics import elmore_delay
from repro.interconnect.rctree import RCTree
from repro.interconnect.spef import read_spef, write_spef
from repro.units import FF, UM


class TestRoundTrip:
    def test_single_net(self, tech, tmp_path):
        gen = NetGenerator(tech, seed=3)
        tree = gen.random_net(name="n1")
        path = tmp_path / "one.spef"
        write_spef({"n1": tree}, path)
        back = read_spef(path)["n1"]
        assert back.total_cap() == pytest.approx(tree.total_cap(), rel=1e-5)
        assert back.total_resistance() == pytest.approx(
            tree.total_resistance(), rel=1e-5)
        leaf = tree.leaves()[0]
        assert elmore_delay(back, leaf) == pytest.approx(
            elmore_delay(tree, leaf), rel=1e-5)

    def test_many_nets(self, tech, tmp_path):
        gen = NetGenerator(tech, seed=4)
        nets = {f"net{i}": gen.random_net(name=f"net{i}") for i in range(5)}
        path = tmp_path / "many.spef"
        write_spef(nets, path)
        back = read_spef(path)
        assert set(back) == set(nets)

    def test_header_present(self, tech, tmp_path):
        gen = NetGenerator(tech, seed=5)
        path = tmp_path / "h.spef"
        write_spef({"n": gen.chain(20 * UM)}, path, design="mydesign")
        text = path.read_text()
        assert '*DESIGN "mydesign"' in text
        assert "*C_UNIT 1 FF" in text

    def test_branchy_tree_reconstructed(self, tmp_path):
        t = RCTree("drv")
        t.add_segment("a", "drv", 100.0, 1 * FF)
        t.add_segment("b", "a", 50.0, 0.5 * FF)
        t.add_segment("c", "a", 60.0, 0.7 * FF)
        path = tmp_path / "b.spef"
        write_spef({"n": t}, path)
        back = read_spef(path)["n"]
        assert set(back.leaves()) == {"b", "c"}
        assert back.root == "drv"

    def test_sub_attofarad_cap_survives(self, tmp_path):
        # Values are written with significant digits, not fixed decimals:
        # a 0.00048 fF node cap would otherwise be written as 0.000000.
        t = RCTree("drv")
        t.add_segment("a", "drv", 2992.0, 4.8e-22)
        path = tmp_path / "tiny.spef"
        write_spef({"n": t}, path)
        back = read_spef(path)["n"]
        assert back.total_cap() == pytest.approx(4.8e-22, rel=1e-8)
        assert elmore_delay(back, "a") == pytest.approx(
            elmore_delay(t, "a"), rel=1e-8)


class TestErrors:
    def test_missing_res_section(self, tmp_path):
        p = tmp_path / "bad.spef"
        p.write_text("*D_NET n 1.0\n*CAP\n1 a 1.0\n*END\n")
        with pytest.raises(InterconnectError):
            read_spef(p)

    def test_unterminated_net(self, tmp_path):
        p = tmp_path / "bad.spef"
        p.write_text("*D_NET n 1.0\n*RES\n1 a b 10.0\n")
        with pytest.raises(InterconnectError):
            read_spef(p)

    def test_coupling_cap_rejected(self, tmp_path):
        p = tmp_path / "bad.spef"
        p.write_text("*D_NET n 1.0\n*CAP\n1 a b 0.5\n*RES\n1 a b 10.0\n*END\n")
        with pytest.raises(InterconnectError):
            read_spef(p)

    def test_disconnected_resistors_rejected(self, tmp_path):
        p = tmp_path / "bad.spef"
        p.write_text(
            "*D_NET n 1.0\n*CONN\n*I a O\n*RES\n1 a b 10.0\n2 x y 10.0\n*END\n")
        with pytest.raises(InterconnectError):
            read_spef(p)

    def test_truncated_cap_line(self, tmp_path):
        p = tmp_path / "bad.spef"
        p.write_text("*D_NET n 1.0\n*CAP\n1 b\n*RES\n1 a b 10.0\n*END\n")
        with pytest.raises(InterconnectError, match=r"net n: malformed \(truncated\?\) \*CAP"):
            read_spef(p)

    def test_truncated_res_line(self, tmp_path):
        p = tmp_path / "bad.spef"
        p.write_text("*D_NET n 1.0\n*CAP\n1 b 1.0\n*RES\n1 a b\n*END\n")
        with pytest.raises(InterconnectError, match=r"net n: malformed \(truncated\?\) \*RES"):
            read_spef(p)

    def test_duplicate_cap_entry(self, tmp_path):
        p = tmp_path / "bad.spef"
        p.write_text(
            "*D_NET n 1.0\n*CONN\n*I a O\n"
            "*CAP\n1 b 0.4\n2 b 0.6\n*RES\n1 a b 10.0\n*END\n")
        with pytest.raises(InterconnectError, match="duplicate \\*CAP entry for node 'b'"):
            read_spef(p)

    def test_unknown_driver_reference(self, tmp_path):
        p = tmp_path / "bad.spef"
        p.write_text(
            "*D_NET n 1.0\n*CONN\n*I ghost O\n"
            "*CAP\n1 b 1.0\n*RES\n1 a b 10.0\n*END\n")
        with pytest.raises(InterconnectError,
                           match="driver 'ghost' not in the resistor network"):
            read_spef(p)

    def test_non_numeric_value(self, tmp_path):
        p = tmp_path / "bad.spef"
        p.write_text(
            "*D_NET n 1.0\n*CONN\n*I a O\n"
            "*CAP\n1 b twelve\n*RES\n1 a b 10.0\n*END\n")
        with pytest.raises(InterconnectError,
                           match="net n: non-numeric \\*CAP value 'twelve'"):
            read_spef(p)

    def test_cap_budget_mismatch(self, tmp_path):
        p = tmp_path / "bad.spef"
        p.write_text(
            "*D_NET n 9.0\n*CONN\n*I a O\n"
            "*CAP\n1 b 1.0\n2 c 2.0\n*RES\n1 a b 10.0\n2 b c 10.0\n*END\n")
        with pytest.raises(InterconnectError,
                           match="cap total 9.* does not match the sum"):
            read_spef(p)

    def test_matching_cap_budget_accepted(self, tmp_path):
        p = tmp_path / "ok.spef"
        p.write_text(
            "*D_NET n 3.0\n*CONN\n*I a O\n"
            "*CAP\n1 b 1.0\n2 c 2.0\n*RES\n1 a b 10.0\n2 b c 10.0\n*END\n")
        assert read_spef(p)["n"].total_cap() == pytest.approx(3 * FF)

    def test_comments_and_blank_lines_ignored(self, tmp_path):
        p = tmp_path / "ok.spef"
        p.write_text(
            "// header comment\n\n*D_NET n 1.0\n*CONN\n*I a O\n"
            "*CAP\n1 b 1.0\n*RES\n1 a b 10.0\n*END\n")
        net = read_spef(p)["n"]
        assert net.root == "a"
        assert net.total_cap() == pytest.approx(1 * FF)
