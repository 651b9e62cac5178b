"""Balanced XOR network coding over GF(2) with Latin-rectangle designs."""

from .codec import (
    MODE_BALANCED_DECODE,
    MODE_DIRECT,
    MODES,
    CodedPacket,
    CodingScheme,
    Decoder,
    SourceBlock,
    decodable_indexes,
    decode,
    deserialize_packet,
    encode,
    format_manifest,
    join_payload,
    make_scheme,
    parse_manifest,
    serialize_packet,
    split_payload,
)
from .errors import (
    CodingError,
    DesignSearchError,
    PacketIntegrityError,
    ParseError,
    PartialDecodeError,
    ScheduleError,
    SingularMatrixError,
    TopologyError,
    WireFormatError,
)
from .gf2 import Basis, BitMatrix, determinant, invert, rank
from .latin import (
    LatinRectangle,
    auto_rows,
    block_incidence,
    find_nonsingular_rectangle,
    is_balanced,
    jm_generate,
    split_upper,
    validate,
)
from .network import (
    Network,
    Schedule,
    SimulationReport,
    SinkReport,
    build_schedule,
    edge_disjoint_paths,
    format_network,
    format_schedule,
    format_simulation_report,
    max_flow,
    num_phases,
    parse_network,
    parse_schedule,
    parse_schedule_partitions,
    path_nodes,
    simulate,
    validate_schedule,
)
from .security import (
    EavesdropReport,
    PathPartition,
    audit,
    check_condition,
    min_eavesdrop_paths,
)

__version__ = "0.1.0"
