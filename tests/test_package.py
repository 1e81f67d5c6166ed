"""The package's public names: each resolves, and the lazy ones come from
their modules."""

import pytest

import catwalk
from catwalk import cli, diffusion, discrete, failure_cycle, scaling, simulate, special


@pytest.mark.parametrize(
    "module",
    [catwalk, discrete, diffusion, failure_cycle, scaling, simulate, special, cli],
    ids=lambda m: m.__name__,
)
def test_every_public_name_resolves(module):
    for name in module.__all__:
        assert getattr(module, name) is not None, name


def test_lazy_names_come_from_their_modules():
    from catwalk import simulate

    assert catwalk.DistributionSlice is discrete.DistributionSlice
    assert catwalk.DensitySlice is diffusion.DensitySlice
    assert catwalk.SimConfig is simulate.SimConfig
    with pytest.raises(AttributeError):
        catwalk.no_such_name
