"""Command-line interface: exit codes, determinism, report formats."""

import json

import numpy as np
import pytest

from almostiso.cli import main
from almostiso.config import config_from_dict, load_config


CONFIG = {
    "chart": {"box": [[-0.5, 0.5], [-0.5, 0.5]], "fd_step": 1e-3},
    "metric": {
        "kind": "randers",
        "g": {"kind": "constant", "matrix": [[1, 0], [0, 1]]},
        "tau": {"kind": "expressions", "components": ["-0.2*x2", "0.2*x1"]},
    },
    "grid": {"m": 512},
    "solver": {"segments": 16, "iters": 300},
    "seed": 0,
}


@pytest.fixture()
def config_path(tmp_path):
    path = tmp_path / "metric.json"
    path.write_text(json.dumps(CONFIG))
    return str(path)


class TestConfig:
    def test_loads_expressions(self, config_path):
        cfg = load_config(config_path)
        assert cfg.chart.dim == 2
        tau = cfg.randers.tau(np.array([0.1, 0.3]))
        np.testing.assert_allclose(tau, [-0.06, 0.02])

    def test_potential_tau(self):
        raw = dict(CONFIG)
        raw["metric"] = {
            "kind": "randers",
            "g": {"kind": "constant", "matrix": [[1, 0], [0, 1]]},
            "tau": {"kind": "potential", "f": "0.3*x1"},
        }
        cfg = config_from_dict(raw)
        tau = cfg.randers.tau(np.array([0.0, 0.0]))
        np.testing.assert_allclose(tau, [0.3, 0.0], atol=1e-10)

    @staticmethod
    def run_curvature(tmp_path, key, spec):
        raw = json.loads(json.dumps(CONFIG))
        raw["metric"][key] = spec
        path = tmp_path / "metric.json"
        path.write_text(json.dumps(raw))
        return main(["curvature", "--config", str(path), "--planes", "2"])

    @pytest.mark.parametrize("key, spec", [
        ("g", {"kind": "expressions", "components": [["1"]]}),
        ("g", {"kind": "expressions", "components": [["1", "0", "0"], ["0", "1", "0"],
                                                     ["0", "0", "1"]]}),
        ("tau", {"kind": "expressions", "components": ["0.1"]}),
        ("tau", {"kind": "expressions", "components": ["0.1", "0", "0"]}),
    ], ids=["g-1x1", "g-3x3", "tau-1", "tau-3"])
    def test_components_of_wrong_shape_exit_2(self, key, spec, tmp_path, capsys):
        assert self.run_curvature(tmp_path, key, spec) == 2
        assert "must have shape" in capsys.readouterr().err

    @pytest.mark.parametrize("g, message", [
        ({"kind": "fubini-study"}, "fubini-study metric needs a 4-dimensional chart"),
        ({"kind": "no-such-kind"}, "unknown metric component kind 'no-such-kind'"),
    ], ids=["fubini-study-2d", "unknown"])
    def test_named_g_kind_errors_exit_2(self, g, message, tmp_path, capsys):
        assert self.run_curvature(tmp_path, "g", g) == 2
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize("kind, factor", [
        ("sphere-conformal", lambda r2: 4.0 / (1.0 + r2) ** 2),
        ("hyperbolic-conformal", lambda r2: 4.0 / (1.0 - r2) ** 2),
    ], ids=["sphere", "hyperbolic"])
    def test_conformal_kinds_load_on_3d_chart(self, kind, factor):
        cfg = config_from_dict({"chart": {"box": [[-0.5, 0.5]] * 3},
                                "metric": {"g": {"kind": kind}}})
        x = np.random.default_rng(2).uniform(-0.5, 0.5, (20, 3))
        expected = factor((x ** 2).sum(axis=-1))[:, None, None] * np.eye(3)
        assert np.array_equal(cfg.randers.g(x), expected)


class TestVerifyCommand:
    def test_unknown_example_exit_2(self, capsys):
        assert main(["verify", "no-such-example"]) == 2
        assert "unknown example" in capsys.readouterr().err

    def test_missing_target_exit_2(self):
        assert main(["verify"]) == 2

    @pytest.mark.parametrize("argv", [
        ["curvature", "example-2.5", "--grid-m", "64"],
        ["betterment", "example-2.5", "--iters", "5"],
    ])
    def test_flag_the_command_ignores_is_usage_error(self, argv):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2

    @pytest.mark.parametrize("argv", [
        ["verify", "example-2.5", "--segments", "0"],
        ["distance", "example-2.5", "--segments", "0", "--from", "0,0", "--to", "0.3,0"],
        ["triangle", "example-2.5", "--segments", "0", "--flow-field=x1;x2", "--flow-time", "0.2"],
        ["triangle", "example-2.5", "--iters", "-1"],
    ], ids=["verify", "distance", "triangle-dilation", "triangle-negative-iters"])
    def test_empty_solve_exit_2(self, argv, capsys):
        # with no segment every distance read 0, so a dilation passed t-invariance
        assert main(argv) == 2
        assert "segments >= 1 and iters >= 0" in capsys.readouterr().err

    def test_config_solver_without_segments_exit_2(self, tmp_path, capsys):
        raw = json.loads(json.dumps(CONFIG))
        raw["solver"]["segments"] = 0
        path = tmp_path / "metric.json"
        path.write_text(json.dumps(raw))
        assert main(["distance", "--config", str(path), "--from", "0,0", "--to", "0.3,0"]) == 2
        assert "segments >= 1" in capsys.readouterr().err

    def test_verify_flat_25(self, tmp_path):
        out = tmp_path / "report.json"
        code = main(["verify", "example-2.5", "--c", "0.4", "--out", str(out)])
        report = json.loads(out.read_text())
        assert code == 0
        assert report["pass"] is True
        assert report["schema_version"] == 1
        by_id = {c["id"]: c for c in report["checks"]}
        assert by_id["almost-killing-dimension"]["measured"] == 3.0
        assert by_id["spectral-gap"]["measured"] > 1e2

    def test_verify_flat_4d_betterment(self, tmp_path):
        # tau = 0.2 dx1 is constant; the corrected covector recovers it
        from almostiso import build_gallery_entry

        out = tmp_path / "report.json"
        assert main(["verify", "example-2-4d", "--out", str(out)]) == 0
        detail = {c["id"]: c for c in json.loads(out.read_text())["checks"]}[
            "betterment-recovery"]["detail"]
        entry = build_gallery_entry("example-2-4d")
        for x, b in zip(detail["points"], detail["barycenters"]):
            diff = np.asarray(b) - entry.tau(np.asarray(x))
            assert np.sqrt(diff @ np.linalg.solve(entry.g(np.asarray(x)), diff)) < 1e-10
        assert len(detail["corrections"]) == 3
        assert all(c > 0.0 for c in detail["corrections"])

    def test_verify_builds_one_residual(self, tmp_path, monkeypatch):
        # dimension, threshold stability and cross-validation share one spectrum
        from almostiso import symmetry

        calls = []
        build = symmetry.build_residual
        monkeypatch.setattr(symmetry, "build_residual",
                            lambda *a, **kw: calls.append(1) or build(*a, **kw))
        main(["verify", "example-2.5", "--segments", "4", "--iters", "10",
              "--out", str(tmp_path / "report.json")])
        assert len(calls) == 1

    def test_verify_potential_config(self, tmp_path):
        # the potential's centered difference steps past the box corners,
        # where the admissibility margin is sampled
        raw = {
            "chart": {"box": [[-0.5, 0.5], [-0.5, 0.5]], "fd_step": 1e-3},
            "metric": {
                "kind": "randers",
                "g": {"kind": "constant", "matrix": [[1, 0], [0, 1]]},
                "tau": {"kind": "potential", "f": "0.3*x1"},
            },
            "solver": {"segments": 16, "iters": 400},
            "seed": 0,
        }
        cfg = tmp_path / "potential.json"
        cfg.write_text(json.dumps(raw))
        out = tmp_path / "report.json"
        assert main(["verify", "--config", str(cfg), "--out", str(out)]) == 0
        assert json.loads(out.read_text())["pass"] is True

    def test_threshold_override_same_dimension(self, tmp_path):
        out1, out2 = tmp_path / "a.json", tmp_path / "b.json"
        assert main(["verify", "example-2.5", "--c", "0.4", "--out", str(out1)]) == 0
        assert main(["verify", "example-2.5", "--c", "0.4",
                     "--sv-threshold", "1e-5", "--out", str(out2)]) == 0
        r1 = json.loads(out1.read_text())
        r2 = json.loads(out2.read_text())
        d1 = next(c for c in r1["checks"] if c["id"] == "almost-killing-dimension")
        d2 = next(c for c in r2["checks"] if c["id"] == "almost-killing-dimension")
        assert d1["measured"] == d2["measured"]
        assert r1["pass"] and r2["pass"]

    @pytest.mark.parametrize("target, code", [(4.0, 0), (4.1, 1)])
    def test_fubini_study_holomorphic_curvature_pinned(self, target, code, tmp_path, monkeypatch):
        # the holomorphic mean is held to the entry's constant, as sectional
        # means are; a wrong constant fails that row and the run
        import dataclasses

        from almostiso import cli

        build = cli.build_gallery_entry
        monkeypatch.setattr(cli, "build_gallery_entry", lambda name, c=None: dataclasses.replace(
            build(name, c), curvature_target=target))
        out = tmp_path / "report.json"
        assert main(["verify", "fubini-study", "--out", str(out)]) == code
        checks = {c["id"]: c for c in json.loads(out.read_text())["checks"]}
        row = checks.pop("certificate-holomorphic_curvature_mean")
        assert row["tolerance"] == 1e-3
        assert row["pass"] is (code == 0)
        assert all(c["pass"] for c in checks.values())

    def test_byte_identical_reruns(self, tmp_path):
        out1, out2 = tmp_path / "a.json", tmp_path / "b.json"
        main(["verify", "example-2.5", "--c", "0.4", "--seed", "3", "--out", str(out1)])
        main(["verify", "example-2.5", "--c", "0.4", "--seed", "3", "--out", str(out2)])
        assert out1.read_bytes() == out2.read_bytes()

    def test_csv_format(self, tmp_path, capsys):
        code = main(["verify", "example-2.5", "--c", "0.4", "--format", "csv"])
        captured = capsys.readouterr().out
        assert code == 0
        header = captured.splitlines()[0]
        assert header == "suite,check_id,inputs_digest,measured,tolerance,pass"

    def test_environment_reports_grid_used(self, tmp_path):
        # a 3D config runs on the 2562-point icosphere; a 4D --grid-m is
        # rounded to a product grid
        from almostiso import direction_grid

        raw = {
            "chart": {"box": [[-0.5, 0.5]] * 3, "fd_step": 1e-3},
            "metric": {"kind": "randers",
                       "g": {"kind": "constant", "matrix": np.eye(3).tolist()},
                       "tau": {"kind": "expressions", "components": ["0.2", "0", "0"]}},
        }
        cfg = tmp_path / "flat3.json"
        cfg.write_text(json.dumps(raw))
        rounded = direction_grid(4, 2000).m
        assert rounded != 2000
        cheap = ["--segments", "4", "--iters", "10"]
        for argv, m in ((["--config", str(cfg)], 2562),
                        (["example-3", "--grid-m", "2000"], rounded)):
            out = tmp_path / "report.json"
            main(["verify", *argv, *cheap, "--out", str(out)])
            assert json.loads(out.read_text())["environment"]["grid_m"] == m

    def test_emit_config_reproduces_entry(self, tmp_path):
        import numpy as np
        from almostiso import build_gallery_entry
        from almostiso.config import load_config

        cfg_path = tmp_path / "entry.json"
        rep_path = tmp_path / "rep.json"
        code = main(["verify", "example-2.5", "--c", "0.4",
                     "--emit-config", str(cfg_path), "--out", str(rep_path)])
        assert code == 0
        cfg = load_config(str(cfg_path))
        entry = build_gallery_entry("example-2.5", c=0.4)
        pts = entry.chart.sample_points(6, seed=2, margin=0.1)
        np.testing.assert_allclose(cfg.randers.tau(pts), entry.tau(pts), atol=1e-12)

    def test_emit_config_holds_certified_box(self, tmp_path):
        # c = 3 shrinks the box to +-0.4; the emitted config must carry it
        cfg = tmp_path / "shrunk.json"
        margins = []
        for argv in (["example-2.5", "--c", "3.0", "--emit-config", str(cfg)],
                     ["--config", str(cfg)]):
            out = tmp_path / "report.json"
            assert main(["verify", *argv, "--out", str(out)]) == 0
            checks = {c["id"]: c for c in json.loads(out.read_text())["checks"]}
            margins.append(checks["admissibility-margin"]["measured"])
        assert margins == [0.15147186257614287] * 2

    def test_emit_config_from_config(self, config_path, tmp_path):
        emitted = tmp_path / "emitted.json"
        main(["verify", "--config", config_path, "--segments", "4", "--iters", "10",
              "--emit-config", str(emitted), "--out", str(tmp_path / "report.json")])
        assert json.loads(emitted.read_text()) == CONFIG


class TestOtherCommands:
    def test_betterment(self, capsys):
        code = main(["betterment", "example-2.5", "--c", "0.4", "--frame"])
        report = json.loads(capsys.readouterr().out)
        assert code == 0
        check = report["checks"][0]
        assert check["pass"] is True
        assert abs(np.array(check["detail"]["fitted_matrix"]) - np.eye(2)).max() < 1e-4

    def test_betterment_records_correction(self, capsys):
        # |b1 - b0| in the g-dual norm, as verify's betterment-recovery records it
        from almostiso.duality import _betterment_passes, direction_grid
        from almostiso.gallery import build_gallery_entry

        # off the centre, where tau vanishes and so does the correction
        assert main(["betterment", "example-2.5", "--frame", "--point", "0.2,0.1"]) == 0
        report = json.loads(capsys.readouterr().out)
        correction = report["checks"][0]["detail"]["correction"]
        assert np.isfinite(correction) and correction > 0.0
        entry = build_gallery_entry("example-2.5")
        x = np.array([0.2, 0.1])
        G = entry.randers.g(x)
        b0, b1 = _betterment_passes(entry.randers.norm_at(x), direction_grid(2),
                                    frame=np.linalg.inv(np.linalg.cholesky(G)).T)
        assert correction == float(np.sqrt((b1 - b0) @ np.linalg.solve(G, b1 - b0)))

    def test_samples_out_csvs(self, tmp_path):
        body, planes = tmp_path / "body.csv", tmp_path / "planes.csv"
        assert main(["betterment", "example-2.5", "--frame", "--samples-out", str(body)]) == 0
        assert main(["curvature", "example-2.5-sphere", "--planes", "5",
                     "--samples-out", str(planes)]) == 0
        # recentred gauge values 1 / F_better(u) on the 512-gon: the unit disk of g = I
        assert body.read_text().splitlines()[0] == "u1,u2,value"
        rows = np.loadtxt(body, delimiter=",", skiprows=1)
        assert rows.shape == (512, 3)
        assert np.all(rows[:, 2] > 0)
        assert np.abs(rows[:, 2] - 1.0).max() < 1e-4
        # one row per plane: point, plane seed, sectional curvature of the unit sphere
        assert planes.read_text().splitlines()[0] == "x1,x2,plane_seed,K"
        sweep = np.loadtxt(planes, delimiter=",", skiprows=1)
        assert sweep.shape == (5, 4)
        assert np.abs(sweep[:, 3] - 1.0).max() < 1e-3

    def test_dimension_config(self, config_path, capsys):
        code = main(["dimension", "--config", config_path, "--expect-dimension", "3",
                     "--skip-crossval"])
        report = json.loads(capsys.readouterr().out)
        assert code == 0
        assert report["checks"][0]["measured"] == 3.0

    def test_dimension_expect_flag_wins(self, capsys):
        code = main(["dimension", "example-2.5", "--expect-dimension", "5",
                     "--skip-crossval"])
        report = json.loads(capsys.readouterr().out)
        assert code == 1
        assert report["checks"][0]["detail"]["expected"] == 5

    def test_distance(self, config_path, capsys):
        code = main(["distance", "--config", config_path,
                     "--from", "0,0", "--to", "0.3,0"])
        report = json.loads(capsys.readouterr().out)
        assert code == 0
        check = report["checks"][0]
        # the rotational drift bows the geodesic: slightly below straight
        assert 0.29 < check["measured"] <= 0.3 + 1e-12
        assert check["detail"]["cauchy_difference"] < 1e-5

    def test_distance_negative_first_coordinate(self, capsys):
        # "--from -0.1,0" reads as an option; the "=" form passes the value
        code = main(["distance", "example-2.5-hyperbolic", "--from=-0.1,0", "--to=0.2,0.1"])
        assert code == 0
        assert json.loads(capsys.readouterr().out)["checks"][0]["measured"] > 0.0

    def test_curvature(self, capsys):
        code = main(["curvature", "example-2.5-sphere", "--planes", "10",
                     "--max-std", "1e-3"])
        report = json.loads(capsys.readouterr().out)
        assert code == 0
        assert abs(report["checks"][0]["detail"]["mean"] - 1.0) < 1e-3

    @pytest.mark.parametrize("planes", ["0", "-3"])
    def test_curvature_without_planes_exit_2(self, planes, capsys):
        # an empty sweep reported a mean of "nan"; a negative one a numpy shape error
        assert main(["curvature", "example-2.5-sphere", "--planes", planes]) == 2
        assert f"--planes must be at least 1, got {planes}" in capsys.readouterr().err

    def test_invariant_forms(self, capsys):
        code = main(["invariant-forms", "--algebra", "u2", "--expect", "1"])
        report = json.loads(capsys.readouterr().out)
        assert code == 0
        assert report["checks"][0]["measured"] == 1.0

    def test_invariant_forms_wrong_expectation(self, capsys):
        assert main(["invariant-forms", "--algebra", "so3", "--expect", "2"]) == 1

    def test_triangle_with_flow(self, config_path, capsys):
        code = main(["triangle", "--config", config_path, "--triples", "4",
                     "--flow-field=-x2;x1", "--flow-time", "0.3"])
        report = json.loads(capsys.readouterr().out)
        assert code == 0
        assert report["checks"][0]["measured"] < 1e-4

    def test_triangle_plain(self, config_path, capsys):
        code = main(["triangle", "--config", config_path, "--triples", "4"])
        report = json.loads(capsys.readouterr().out)
        assert code == 0
        assert min(report["checks"][0]["detail"]["t_values"]) > -2e-5
