"""The committed report corpus (``corpus.py``): each report is reproduced."""

import json

import pytest

import corpus


def test_every_report_of_the_corpus_is_reproduced(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    commands = corpus.write_inputs()
    assert len(commands) == 40
    assert sorted(p.stem for p in corpus.REPORTS.glob("*.json")) == sorted(n for n, _ in commands)
    for name, argv in commands:
        code, text = corpus.run(argv)
        assert code == 0, name
        want = json.loads((corpus.REPORTS / f"{name}.json").read_text())
        assert corpus.mismatches(want, json.loads(text)) == [], name


@pytest.mark.parametrize("want, got, moved", [
    ({"a": 0.1}, {"a": 0.1 + 2e-17}, []),
    ({"a": 0.5}, {"a": 0.5 + 2**-40}, [".a: 0.5 -> 0.5000000000009095"]),
    ({"a": 1e6}, {"a": 1e6 * (1 + 4e-16)}, []),
    ({"a": 1}, {"a": 1.0}, [".a: 1 -> 1.0"]),
    ({"a": True}, {"a": 1}, [".a: True -> 1"]),
    ({"a": [1, "x"]}, {"a": [1, "y"]}, [".a[1]: x -> y"]),
    ({"a": 1}, {"b": 1}, [".a: missing", ".b: unexpected"]),
    ({"r": {"evolved_observable": "0.5 ZI\n0.25 IX"}},
     {"r": {"evolved_observable": "0.5000000000000001 ZI\n0.25 IX"}}, []),
    ({"r": {"evolved_observable": "0.5 ZI"}}, {"r": {"evolved_observable": "0.5 IZ"}},
     [".r.evolved_observable: 0.5 ZI -> 0.5 IZ"]),
    ({"r": {"reduced_circuit_qasm": "rz(0.5) q[0];"}},
     {"r": {"reduced_circuit_qasm": "rz(0.5000000000000001) q[0];"}},
     [".r.reduced_circuit_qasm: rz(0.5) q[0]; -> rz(0.5000000000000001) q[0];"]),
])
def test_report_comparison_is_exact_but_for_a_few_ulp_of_a_float(want, got, moved):
    assert corpus.mismatches(want, got) == moved
