"""RIS-assisted radar vital-sign monitoring simulator."""

__version__ = "0.2.0"

from .beamform import (IllConditionedConstraints, Precoder, min_norm_precoder,
                       min_power_closed_form, split_precoder, split_scale,
                       steering_correlation, temporal_weights)
from .channel import (ChannelModel, ChannelRealization, RisConfig,
                      build_ris_grid, channel_model, los_channel,
                      realize_channel, ris_focus_profile)
from .geometry import (ArrayConfig, GeometryError, PathAngles, Placement,
                       angles_from_placement, ula_steering)
from .physio import (DisplacementTrace, RcsModel, angle_gain, load_trace_csv,
                     observed_displacement, rcs_series, synth_respiration,
                     write_trace_csv)
from .scenario import (ChannelConfig, PhysioConfig, ProcessingConfig,
                       RadarConfig, RisPanel, RunResult, Scenario,
                       StaticScene, default_placement, extract_vital_signs,
                       noiseless, simulate_acquisition)
from .sigproc import (Spectrum, VitalSignEstimate, clutter_filter,
                      make_waveform, matched_filter, peak_quality,
                      phase_demodulate, power_spectrum, root_music_doa,
                      separate_paths)
from .strategy import (LoopState, StrategyConfig, estimate_position,
                       evaluate_and_update, gamma_sweep, plan_transmissions,
                       run_closed_loop, run_once)
