"""Convolution geometry keys: what a kernel measurement is *of*.

A :class:`ConvGeometryKey` pins every static quantity that shapes one
binarized convolution workload — batch, spatial extent, channel counts,
kernel/stride/dilation/padding/groups.  A different batch factor of the
same layer is a different geometry (the BGEMM M dimension scales with
batch).
"""

from __future__ import annotations

from dataclasses import asdict, dataclass

from repro.core.im2col import conv_geometry
from repro.core.types import Padding


@dataclass(frozen=True)
class ConvGeometryKey:
    """Static geometry of one binarized convolution workload."""

    batch: int
    in_h: int
    in_w: int
    in_channels: int
    out_channels: int
    kernel_h: int
    kernel_w: int
    stride: int = 1
    dilation: int = 1
    padding: str = Padding.SAME_ONE.value
    groups: int = 1

    def __post_init__(self) -> None:
        if min(
            self.batch, self.in_h, self.in_w, self.in_channels,
            self.out_channels, self.kernel_h, self.kernel_w, self.stride,
            self.dilation, self.groups,
        ) < 1:
            raise ValueError(f"invalid conv geometry: {self}")
        Padding(self.padding)  # raises ValueError for unknown modes

    @property
    def key(self) -> str:
        """Canonical string for this geometry."""
        return (
            f"b{self.batch}_i{self.in_h}x{self.in_w}x{self.in_channels}"
            f"_o{self.out_channels}_k{self.kernel_h}x{self.kernel_w}"
            f"_s{self.stride}_d{self.dilation}_{self.padding}_g{self.groups}"
        )

    @property
    def out_hw(self) -> tuple[int, int]:
        geom = conv_geometry(
            self.in_h, self.in_w, self.kernel_h, self.kernel_w,
            self.stride, self.dilation, Padding(self.padding),
        )
        return geom.out_h, geom.out_w

    @property
    def bgemm_m(self) -> int:
        """BGEMM row count: batch times output pixels."""
        out_h, out_w = self.out_hw
        return self.batch * out_h * out_w

    @property
    def bgemm_words(self) -> int:
        """BGEMM operand width in packed uint64 words (per group)."""
        cin_g = self.in_channels // self.groups
        return self.kernel_h * self.kernel_w * (-(-cin_g // 64))

    @property
    def macs(self) -> int:
        cin_g = self.in_channels // self.groups
        return (
            self.bgemm_m * self.out_channels
            * self.kernel_h * self.kernel_w * cin_g
        )

    def to_json(self) -> dict:
        return asdict(self)

    @classmethod
    def from_json(cls, obj: dict) -> "ConvGeometryKey":
        if not isinstance(obj, dict):
            raise ValueError(
                f"geometry must be an object, got {type(obj).__name__}"
            )
        fields = set(ConvGeometryKey.__dataclass_fields__)
        unknown = set(obj) - fields
        if unknown:
            raise ValueError(f"geometry has unknown fields: {sorted(unknown)}")
        try:
            return cls(**obj)
        except TypeError as exc:
            raise ValueError(f"geometry: {exc}") from None


def node_geometry(node, specs) -> ConvGeometryKey:
    """The :class:`ConvGeometryKey` of one ``lce_bconv2d`` node.

    ``specs`` maps tensor names to (possibly rebatched) specs, exactly as
    plan compilation holds them, so the key reflects the batch the
    compiled kernel will actually see.
    """
    from repro.ops import get_spec

    if node.op != "lce_bconv2d":
        raise ValueError(f"node {node.name!r} is {node.op!r}, not lce_bconv2d")
    p = get_spec(node.op).parse_attrs(node.attrs)
    batch, in_h, in_w = specs[node.inputs[0]].shape[:3]
    return ConvGeometryKey(
        batch=int(batch),
        in_h=int(in_h),
        in_w=int(in_w),
        in_channels=p.in_channels,
        out_channels=p.out_channels,
        kernel_h=p.kernel_h,
        kernel_w=p.kernel_w,
        stride=p.stride,
        dilation=p.dilation,
        padding=p.padding.value,
        groups=p.groups,
    )


def graph_geometries(graph, batch_factor: int = 1) -> list[ConvGeometryKey]:
    """Unique binarized-conv geometries of ``graph``, in first-seen order.

    Duplicates (QuickNet repeats each layer shape several times)
    collapse to one.
    """
    from repro.runtime.rebatch import rebatched_specs

    specs = rebatched_specs(graph, batch_factor)
    seen: dict[str, ConvGeometryKey] = {}
    for node in graph.nodes:
        if node.op != "lce_bconv2d":
            continue
        geom = node_geometry(node, specs)
        seen.setdefault(geom.key, geom)
    return list(seen.values())
