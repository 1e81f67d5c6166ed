"""The package's public names: each resolves, and the closed-form laws that
the model modules re-export from their NumPy-free modules are the same
objects."""

import pytest

import catwalk
from catwalk import diffusion, diffusion_closed, discrete, discrete_closed


@pytest.mark.parametrize(
    "module", [catwalk, discrete, diffusion, discrete_closed, diffusion_closed],
    ids=lambda m: m.__name__,
)
def test_every_public_name_resolves(module):
    for name in module.__all__:
        assert getattr(module, name) is not None, name


@pytest.mark.parametrize(
    "model,closed", [(discrete, discrete_closed), (diffusion, diffusion_closed)],
    ids=["discrete", "diffusion"],
)
def test_model_modules_re_export_the_closed_forms(model, closed):
    assert set(closed.__all__) <= set(model.__all__)
    for name in closed.__all__:
        assert getattr(model, name) is getattr(closed, name), name


def test_lazy_names_come_from_their_modules():
    from catwalk import simulate

    assert catwalk.DistributionSlice is discrete.DistributionSlice
    assert catwalk.DensitySlice is diffusion.DensitySlice
    assert catwalk.SimConfig is simulate.SimConfig
    with pytest.raises(AttributeError):
        catwalk.no_such_name
