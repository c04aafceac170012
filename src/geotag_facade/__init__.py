"""Geometry-driven coarse annotation of building facades in panoramas.

From GIS building footprints, panorama metadata and detector boxes,
derive function-category annotations in the street-view pixel domain:
trace walls per heading, merge visibility intervals, map them onto the
pixel axis, and label the detector boxes they explain.
"""

from .config import RunConfig
from .errors import (ConfigError, DegenerateSceneError, GeotagFacadeError,
                     LoadError, OutOfRangeError, ParseError)
from .ingest import (BuildingFootprint, CategoryMapping, DetectionBox,
                     DetectionSet, FootprintSet, PanoramaMeta, PanoramaSet,
                     load_category_mapping, load_detections, load_footprints,
                     load_panorama_meta)
from .matcher import (AnnotationSet, CoarseAnnotation, filter_detections,
                      fit_threshold, generate_coarse_annotations, trace_run)
from .metrics import (AccuracyReport, EvalBox, EvalBoxSet, average_precision,
                      coarse_accuracy, coco_summary, iou_2d)
from .projection import (EARTH_RADIUS_KM, METERS_PER_DEGREE, FootprintIndex,
                         LocalScene, LocalXY, WallSegment, clip_scene,
                         geodetic_to_local, local_to_geodetic)
from .raytrace import (RaySweep, VisibilityInterval, intervals_from_sweep,
                       intervals_to_pixel, trace_sweep)
from .synth import (GroundTruthBox, NoiseConfig, SceneConfig, SyntheticScene,
                    generate_scene, oracle_hits, oracle_visibility,
                    perturb_detections)

__version__ = "0.1.0"
