"""Walk through one channel realization: geometry, path losses, beam sparsity."""

import numpy as np

from beamswarm import (
    make_config, place_nodes, realize_channels, derive_stream, watts_to_dbm
)
from beamswarm.channel import cascaded_spatial, to_beamspace
from beamswarm.scenario import path_loss_db

cfg = make_config(rng_seed=0)
rng = derive_stream(cfg.rng_seed, 0)

print(f"scenario: N={cfg.n_antennas} beams, K={cfg.n_users} users, "
      f"J={cfg.n_ris} surfaces x {cfg.uc_per_ris[0]} cells, "
      f"P={watts_to_dbm(cfg.total_power):.0f} dBm")

layout = place_nodes(cfg, rng)
d_bs_ris = layout.bs_ris_distances()
d_ris_ue = layout.ris_ue_distances()
print(f"surfaces sit on the {cfg.cell_radius_m:.0f} m cell edge; "
      f"user radii {np.linalg.norm(layout.ue_positions, axis=1).min():.1f}"
      f"-{np.linalg.norm(layout.ue_positions, axis=1).max():.1f} m")
print(f"direct-path loss BS->surface: "
      f"{path_loss_db(d_bs_ris[0], cfg.carrier_freq_ghz, True):.1f} dB at "
      f"{d_bs_ris[0]:.0f} m")
print(f"surface->user distances span {d_ris_ue.min():.1f}-{d_ris_ue.max():.1f} m")

# realize_channels re-draws its own layout from the stream; this one is fresh
channels = realize_channels(cfg, derive_stream(cfg.rng_seed, 0))
print(f"\nBS->surface blocks: {len(channels.bs_ris)} x {channels.bs_ris[0].shape}")
print(f"surface->user blocks: {len(channels.ris_ue)} x {channels.ris_ue[0].shape}")

# with random phases, the beamspace channel concentrates on a few beams
phases = 2.0 * np.pi * derive_stream(1, 0).random(cfg.total_uc)
h_beam = to_beamspace(cascaded_spatial(channels, phases), channels.dft_matrix)
power_per_beam = (np.abs(h_beam) ** 2).sum(axis=1)
share = np.sort(power_per_beam)[::-1].cumsum() / power_per_beam.sum()
print(f"\nstrongest 8 of {cfg.n_antennas} beams carry "
      f"{100*share[7]:.1f}% of the channel power")
print(f"strongest 16 carry {100*share[15]:.1f}%")
