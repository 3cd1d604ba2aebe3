"""Ablation runners at micro scale (mechanics, not science)."""

from __future__ import annotations

import json

from repro.experiments import run_ablation_suite


class TestAblationRunners:
    def test_surrogate_ablation_micro(self):
        result = run_ablation_suite(
            "micro", factors=("surrogate",), surrogate_families=("superspike", "triangle")
        )["surrogate"]
        assert set(result.variants) == {"superspike", "triangle"}
        assert result.factor == "surrogate"
        text = result.render()
        assert "superspike" in text and "clean accuracies" in text
        json.dumps(result.as_dict())

    def test_reset_ablation_micro(self):
        result = run_ablation_suite("micro", factors=("reset",))["reset"]
        assert set(result.variants) == {"reset_hard", "reset_soft"}
        for curve in result.variants.values():
            assert len(curve) == len(result.epsilons)
            assert all(0.0 <= v <= 1.0 for v in curve)

    def test_encoding_ablation_micro(self):
        result = run_ablation_suite("micro", factors=("encoding",))["encoding"]
        assert set(result.variants) == {"constant_current", "poisson_rate"}
        assert set(result.clean_accuracies) == {"constant_current", "poisson_rate"}

    def test_attack_ablation_micro(self):
        result = run_ablation_suite(
            "micro", factors=("attack",), attack_families=("pgd", "fgsm", "uniform_noise")
        )["attack"]
        assert set(result.variants) == {"pgd", "fgsm", "uniform_noise"}
        assert "reference_snn" in result.clean_accuracies


class TestAblationCLI:
    def test_cli_ablation_reset(self, tmp_path, capsys):
        from repro.experiments.runner import main

        code = main(
            ["ablation", "--factor", "reset", "--profile", "micro",
             "--out", str(tmp_path), "--no-cache"]
        )
        assert code == 0
        assert "Ablation [reset_mode]" in capsys.readouterr().out
        assert (tmp_path / "ablation_reset_micro.json").exists()

    def test_cli_ablation_all_factors_write_artifacts(self, tmp_path, capsys):
        from repro.experiments.runner import main

        code = main(["ablation", "--profile", "micro", "--out", str(tmp_path)])
        assert code == 0
        out = capsys.readouterr().out
        for factor in ("surrogate", "encoding", "reset", "attack"):
            assert (tmp_path / f"ablation_{factor}_micro.json").exists()
        assert "[engine]" in out

    def test_cli_fig9(self, tmp_path, capsys):
        from repro.experiments.runner import main

        code = main(["fig9", "--profile", "micro", "--out", str(tmp_path)])
        assert code == 0
        assert "Figure 9" in capsys.readouterr().out
        assert (tmp_path / "fig9_micro.json").exists()
