"""The benchmark's per-layer tracer still finds the names it patches.

`benchmarks/tracing.py` wraps module attributes of dyncs by name and skips a
name that no longer exists, so a rename in the program would silently zero
a per-layer metric. A short learned training run under the tracer must feed
every metric that such a run exercises.
"""

from pathlib import Path

import numpy as np

from dyncs import autodiff, data, metrics, nufft, pipeline, recon, trajectory
from dyncs.data import PhantomSpec, gen_phantom
from dyncs.recon import ReconConfig, init_recon_params

BENCHMARKS = Path(__file__).resolve().parent.parent / "benchmarks"


def test_tracer_feeds_the_layers_of_a_learned_training_run(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCHMARKS))
    import tracing

    modules = dict(autodiff=autodiff, data=data, metrics=metrics, nufft=nufft,
                   pipeline=pipeline, recon=recon, trajectory=trajectory)
    volumes = [gen_phantom(PhantomSpec(grid=(16, 16), frames=4, seed=s))
               for s in range(5)]
    rcfg = ReconConfig(channels=4, n_blocks=1, heads=2, window=(2, 4, 4))
    tcfg = pipeline.TrainConfig(epochs_main=2, seed=0, batch=2, frames_k=4)
    params = init_recon_params(rcfg, np.random.default_rng(0))
    tracer = tracing.Tracer(modules)
    with tracer.installed():
        pipeline.train_main(volumes, tcfg, trajectory.PhysicsConfig(grid=(16, 16)),
                            rcfg, params, trajectory.init_radial(4, 2, 8))
    layers = tracer.layer_metrics(1)
    for name in ("trajectory.project_calls", "trajectory.fista_iters",
                 "trajectory.feasibility_s", "recon.calls", "pipeline.acquire_s",
                 "autodiff.backward_s", "autodiff.adam_s"):
        assert layers[name] > 0, name
    assert pipeline.project_kinematic is trajectory.project_kinematic  # restored

