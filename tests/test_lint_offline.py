"""``tools/lint_offline.py``'s tree rules, run on the tree itself."""

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


def test_numpy_is_imported_inside_functions_only(tmp_path):
    lint = load_tool("lint_offline")
    assert lint.check_module_level_numpy() == []
    package = tmp_path / "src" / "repro" / "middleware"
    package.mkdir(parents=True)
    (package / "codec.py").write_text(
        "import numpy as np\n"
        "try:\n"
        "    from numpy.linalg import norm\n"
        "except ImportError:\n"
        "    norm = None\n"
        "import numpyro, sys\n"
        "class Codec:\n"
        "    import numpy\n"
        "    def encode(self, values):\n"
        "        import numpy as np\n"
        "        return np.asarray(values).tobytes()\n"
    )
    findings = lint.check_module_level_numpy(tmp_path)
    assert [(str(path), line) for path, line, _ in findings] == [
        ("src/repro/middleware/codec.py", 1),
        ("src/repro/middleware/codec.py", 3),
        ("src/repro/middleware/codec.py", 8),
    ]
    assert all(message.startswith("W002") for _, _, message in findings)


def test_a_link_change_nobody_announces_is_a_finding(tmp_path):
    lint = load_tool("lint_offline")
    assert [
        finding
        for root in ("src", "tests", "benchmarks", "examples")
        for path in sorted((lint.REPO / root).rglob("*.py"))
        for finding in lint.check_file(path)
        if finding[2].startswith("W003")
    ] == []
    source = tmp_path / "churn.py"
    source.write_text(
        "def silent(wan, host):\n"
        "    wan.up = False\n"                      # 2: finding
        "    host.up, wan.loss_rate = False, 0.1\n"  # 3: two findings
        "\n"
        "def announced(wan):\n"
        "    wan.latency = 0.02\n"
        "    wan.changed('degrade')\n"
        "\n"
        "class Link:\n"
        "    def __init__(self):\n"
        "        self.bandwidth = 1e6\n"            # its own attribute
        "    def nested(self, wan):\n"
        "        def later():\n"
        "            wan.bandwidth = 1.0\n"         # 14: the outer call is not its
        "        wan.changed('x')\n"
        "        return later\n"
    )
    findings = lint.check_file(source)
    assert sorted((line, message.split()[3]) for _path, line, message in findings) == [
        (2, ".up"), (3, ".loss_rate"), (3, ".up"), (14, ".bandwidth"),
    ]


def test_a_read_charge_run_as_its_own_timer_is_a_finding(tmp_path):
    lint = load_tool("lint_offline")
    assert lint.check_read_charge_timeouts() == []
    package = tmp_path / "src" / "repro" / "middleware"
    package.mkdir(parents=True)
    (package / "stream.py").write_text(
        "class Stream:\n"
        "    def read(self, n):\n"
        "        data = yield self.sock.recv_exact(n)\n"
        "        cost = self.cost(len(data))\n"
        "        yield self.sim.timeout(cost)\n"            # 5: finding
        "        return data\n"
        "    def charged(self, n):\n"
        "        return (yield self.sock.recv_exact(n, charge=self.cost))\n"
        "    def write(self, data):\n"
        "        yield self.sim.timeout(self.cost(len(data)))\n"  # 10: a write charge
        "        yield self.sock.send(data)\n"
        "    def answer(self, n):\n"
        "        request = yield from self.sock.read(n)\n"
        "        yield self.sock.send(request)\n"
        "        yield self.sim.timeout(1e-6)\n"           # a yield between
        "        if request:\n"
        "            yield self.sim.timeout(1e-6)\n"       # another block
    )
    (tmp_path / "src" / "repro" / "simnet").mkdir()
    (tmp_path / "src" / "repro" / "simnet" / "wire.py").write_text(
        "def pump(sock, sim):\n"
        "    yield sock.recv(1)\n"
        "    yield sim.timeout(1.0)\n"                     # not above VLink
    )
    findings = lint.check_read_charge_timeouts(tmp_path)
    assert [(str(path), line) for path, line, _ in findings] == [
        ("src/repro/middleware/stream.py", 5), ("src/repro/middleware/stream.py", 10)
    ]
    assert findings[0][2].startswith("W004 read charge")
    assert findings[1][2].startswith("W004 write charge")


def test_a_write_charge_run_as_its_own_timer_before_the_send_is_a_finding(tmp_path):
    lint = load_tool("lint_offline")
    package = tmp_path / "src" / "repro" / "personalities"
    package.mkdir(parents=True)
    (package / "sock.py").write_text(
        "class Sock:\n"
        "    def write(self, data):\n"
        "        yield self.sim.timeout(self.cost)\n"       # 3: finding
        "        count = len(data)\n"
        "        yield self.link.write(data)\n"
        "        return count\n"
        "    def posted(self, data, done):\n"
        "        self.sim.call_later(self.cost, self.sock.send, data, done)\n"
        "        yield done\n"
        "    def first_call(self, data):\n"
        "        yield self.sim.timeout(self.cost)\n"       # a connect comes next
        "        yield from self.connect()\n"
        "        yield self.sock.sendall(data)\n"
        "    def guarded(self, data):\n"
        "        yield self.sim.timeout(self.cost)\n"       # a yielding block comes next
        "        if data:\n"
        "            yield self.sock.send(data)\n"
    )
    findings = lint.check_read_charge_timeouts(tmp_path)
    assert [(str(path), line) for path, line, _ in findings] == [
        ("src/repro/personalities/sock.py", 3)
    ]
    assert findings[0][2].startswith("W004 write charge")
