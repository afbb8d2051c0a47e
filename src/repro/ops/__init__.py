"""The operator registry: one :class:`OpSpec` per op, shared everywhere.

Importing this package registers every built-in operator (the module
imports below run the :func:`repro.ops.registry.register` calls) and
re-exports the registry API.  The reference executor, the plan compiler,
shape inference, the latency model and the CLI op table all resolve
per-op knowledge through here.
"""

from repro.ops.registry import (
    CLASS_FP_ADD,
    CLASS_FP_CONV,
    CLASS_FP_OTHER,
    CLASS_LCE_BCONV,
    CLASS_LCE_QUANTIZE,
    AttrField,
    Attrs,
    KernelFn,
    OpContext,
    OpSpec,
    ParamCache,
    Value,
    all_specs,
    check_value,
    compile_node,
    get_spec,
    infer_output_specs,
    is_binary_op,
    mac_layer_ops,
    node_cost,
    op_class_of,
    register,
    validate_graph,
)

# Register the built-in operators (import side effect).
from repro.ops import elementwise as _elementwise  # noqa: E402,F401
from repro.ops import layers as _layers  # noqa: E402,F401
from repro.ops import int8 as _int8  # noqa: E402,F401
from repro.ops import lce as _lce  # noqa: E402,F401

__all__ = [
    "CLASS_FP_ADD",
    "CLASS_FP_CONV",
    "CLASS_FP_OTHER",
    "CLASS_LCE_BCONV",
    "CLASS_LCE_QUANTIZE",
    "AttrField",
    "Attrs",
    "KernelFn",
    "OpContext",
    "OpSpec",
    "ParamCache",
    "Value",
    "all_specs",
    "check_value",
    "compile_node",
    "get_spec",
    "infer_output_specs",
    "is_binary_op",
    "mac_layer_ops",
    "node_cost",
    "op_class_of",
    "register",
    "validate_graph",
]
