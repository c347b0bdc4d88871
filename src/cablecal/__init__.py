"""Cable-length autocalibration toolkit for winch-driven cable robots.

Design mark/sensor layouts, enumerate and rectify detection events, simulate
winding drives with an imperfect incremental encoder, identify the absolute
cable length online by candidate elimination, and search layouts that
minimise the calibration stroke.
"""

from .designer import (
    DesignRecipe,
    InfeasibleRecipe,
    build_design,
    distal_reserve,
    first_sensor_height,
    mark_cycle,
    place_marks,
    place_sensors,
    sensor_count,
)
from .events import (
    Event,
    EventTable,
    delta_stats,
    detection_time,
    enumerate_events,
    rectify,
    stroke_profile,
)
from .identify import Status, fit_encoder, run_trace
from .model import (
    CalibrationDesign,
    Condition,
    ConditionReport,
    MarkLayout,
    RobotGeometry,
    SensorLayout,
    validate_design,
)
from .optimize import ObjectiveScore, compare, score, search
from .simulate import EncoderModel, ObservationTrace, TraceRecord, simulate

__version__ = "0.1.0"
