"""Golden bytes of the files the package writes: a study report's CSV and
JSON, a solver trace's CSV with and without the reference-error column,
and the summary JSON of ``ncpd decompose``.  Two runs of the same code
agree whatever the format, so these literals are what pins it."""

import numpy as np

import ncpd.cli as cli
from ncpd.experiments import ExperimentReport, QuadraticRun
from ncpd.solver import IterationRecord, SolverResult, SolverTrace
from ncpd.tensors import CpdPoint, DenseTensor, ten_write


def report():
    records = [QuadraticRun(0, 1, True, 1.0123953046274916e-27, 6, 2.4218417308967668),
               QuadraticRun(1, 2, False, 0.1, 500, None),
               QuadraticRun(2, 3, True, 0.0, 7, np.float64(1.0) / 3)]
    aggregate = {"experiment": "quadratic", "runs": 3, "median_slope": 1.0 / 3, "q1_slope": None,
                 "slope_histogram": {"edges": [0.0, 0.1, 3.0], "counts": [0, 2]}, "max_final_f": 1e-300,
                 "ok": True}
    return ExperimentReport("quadratic", records, aggregate)


def test_report_csv_writes_none_bool_int_and_float_fields(tmp_path):
    # None is an empty field, a bool 0 or 1, a float 17 significant digits
    expected = ("run,seed,converged,final_f,iterations,slope\n"
                "0,1,1,1.0123953046274916e-27,6,2.4218417308967668\n"
                "1,2,0,0.10000000000000001,500,\n"
                "2,3,1,0,7,0.33333333333333331\n")
    assert report().to_csv_string() == expected
    report().write_csv(tmp_path / "r.csv")
    assert (tmp_path / "r.csv").read_bytes() == expected.encode()


def test_report_json_has_sorted_keys_two_space_indent_and_a_final_newline(tmp_path):
    report().write_json(tmp_path / "r.json")
    assert (tmp_path / "r.json").read_bytes() == (
        b'{\n  "experiment": "quadratic",\n  "max_final_f": 1e-300,\n  "median_slope": 0.3333333333333333,\n'
        b'  "ok": true,\n  "q1_slope": null,\n  "runs": 3,\n  "slope_histogram": {\n    "counts": [\n'
        b'      0,\n      2\n    ],\n    "edges": [\n      0.0,\n      0.1,\n      3.0\n    ]\n  }\n}\n'
    )


def trace(has_reference):
    out = SolverTrace(has_reference)
    err = (0.25, None, 5e-324) if has_reference else (None, None, None)
    out.append(IterationRecord(0, 3.5, 3.180176499368653, 3.3011481875240372, 0.17758480796478593,
                               0.15009072321576489, 1.0, 3, 0, "gn", 11, 5, 0, err[0]))
    out.append(IterationRecord(1, 1e-30, np.float64(2.0) / 3, 1e-300, 0.0, 0.5, 0.5, 0, 2, "pgd", 15, 6, 1, err[1]))
    out.append(IterationRecord(2, 0.0, 0.0, 0.0, 0.0, 0.5, 0.0, 0, 0, "term", 16, 7, 1, err[2]))
    return out


def test_trace_csv_without_and_with_the_error_column(tmp_path):
    rows = ("0,3.180176499368653,3.3011481875240372,0.17758480796478593,0.15009072321576489,1,3,0,gn,11,5,0",
            "1,0.66666666666666663,1e-300,0,0.5,0.5,0,2,pgd,15,6,1",
            "2,0,0,0,0.5,0,0,0,term,16,7,1")
    header = "k,f,fbe,rnorm,gamma,tau,gh,th,kind,fevals,gevals,gapplies"
    assert trace(False).to_csv_string() == "\n".join([header, *rows]) + "\n"
    errors = (",0.25", ",", ",4.9406564584124654e-324")  # the second row has no error
    expected = "\n".join([header + ",err", *(row + err for row, err in zip(rows, errors))]) + "\n"
    assert trace(True).to_csv_string() == expected
    trace(True).write_csv(tmp_path / "t.csv")
    assert (tmp_path / "t.csv").read_bytes() == expected.encode()


def test_decompose_summary_json(tmp_path, monkeypatch, capsys):
    ten_write(tmp_path / "in.ten", DenseTensor.from_array(np.arange(1.0, 7.0).reshape(3, 2, order="F")))

    def fixed(tensor, start, cfg):
        point = CpdPoint([np.ones((3, 1)), np.ones((2, 1))], np.array([0.5]))
        return SolverResult(point, 1.0 / 3, "max-iters", 7, SolverTrace())

    monkeypatch.setattr(cli, "panoc_solve", fixed)
    assert cli.main(["decompose", str(tmp_path / "in.ten"), "--rank", "1", "--out", str(tmp_path / "d")]) == 2
    assert (tmp_path / "d.summary.json").read_bytes() == (
        b'{\n  "algorithm": "gauss-newton",\n  "dims": [\n    3,\n    2\n  ],\n  "final_f": 0.3333333333333333,\n'
        b'  "iterations": 7,\n  "rank": 1,\n  "reason": "max-iters"\n}\n'
    )
    assert capsys.readouterr().out == "gauss-newton: f=3.333333e-01 after 7 iterations (max-iters)\n"
