"""``tools/lint_offline.py``'s cross-file rule, run on the tree itself."""

from __future__ import annotations

from tests.helpers import load_tool


def test_no_attribute_on_the_message_path_is_write_only():
    assert load_tool("lint_offline").check_write_only_attributes() == []


def test_the_rule_sees_stores_and_counts_loads_and_string_keys(tmp_path):
    layer = tmp_path / "src" / "repro" / "simnet"
    layer.mkdir(parents=True)
    (layer / "nic.py").write_text(
        "class Nic:\n"
        "    __slots__ = ('sent', 'seen', 'named')\n"
        "    def send(self):\n"
        "        self.sent += 1\n"
        "        self.seen = 0\n"
        "        self.named = 0\n"
    )
    (tmp_path / "tests").mkdir()
    (tmp_path / "tests" / "test_nic.py").write_text(
        "def test(nic):\n    assert nic.seen == 0 and getattr(nic, 'named') == 0\n"
    )
    findings = load_tool("lint_offline").check_write_only_attributes(tmp_path)
    assert [(str(path), line) for path, line, _ in findings] == [("src/repro/simnet/nic.py", 4)]
    assert "'sent'" in findings[0][2]
