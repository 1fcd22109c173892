"""JSON schema for the analysis report."""

_EXPR = {"type": "object"}  # tagged expression trees; shape varies by node

_EXTENSION = {
    "type": "object",
    "required": ["label", "ideal", "total", "quotient", "collapsed", "text",
                 "quotient_normal_text"],
    "properties": {
        "label": {"type": "string"},
        "ideal": _EXPR,
        "total": _EXPR,
        "quotient": _EXPR,
        "collapsed": {"type": "boolean"},
        "text": {"type": "string"},
        "quotient_normal_text": {"type": "string"},
    },
}

_WARNING = {
    "type": "object",
    "required": ["code", "message"],
    "properties": {
        "code": {"type": "string"},
        "message": {"type": "string"},
    },
}

_VALENCY = {"oneOf": [{"type": "integer"}, {"const": "infinite"}, {"type": "null"}]}

REPORT_SCHEMA = {
    "$schema": "http://json-schema.org/draft-07/schema#",
    "type": "object",
    "required": [
        "tool", "config", "map", "critical_points", "critical_divisor_degree",
        "cycles", "critical_fates", "exposed", "atlas", "algebra",
        "primitive_ideals", "warnings", "notes",
    ],
    "properties": {
        "tool": {
            "type": "object",
            "required": ["name", "version"],
            "properties": {
                "name": {"const": "ratmap"},
                "version": {"type": "string"},
            },
        },
        "config": {"type": "object"},
        "map": {
            "type": "object",
            "required": ["numerator", "denominator", "degree", "mode"],
            "properties": {
                "numerator": {"type": "array", "items": {"type": "string"}},
                "denominator": {"type": "array", "items": {"type": "string"}},
                "degree": {"type": "integer", "minimum": 2},
                "mode": {"enum": ["exact", "floating"]},
                "polynomial": {"type": "boolean"},
                "reduced_from_input": {"type": "boolean"},
            },
        },
        "critical_points": {
            "type": "array",
            "items": {
                "type": "object",
                "required": ["point", "valency", "multiplicity"],
                "properties": {
                    "point": {"type": "string"},
                    "valency": {"type": "integer", "minimum": 2},
                    "multiplicity": {"type": "integer", "minimum": 1},
                },
            },
        },
        "critical_divisor_degree": {"type": "integer"},
        "cycles": {
            "type": "array",
            "items": {
                "type": "object",
                "required": ["id", "period", "points", "multiplier", "classification"],
                "properties": {
                    "id": {"type": "integer"},
                    "period": {"type": "integer", "minimum": 1},
                    "points": {"type": "array", "items": {"type": "string"}},
                    "multiplier": {"type": "string"},
                    "classification": {
                        "enum": [
                            "superattracting", "attracting", "repelling",
                            "rationally_indifferent", "irrationally_indifferent",
                            "indifferent_ambiguous",
                        ]
                    },
                    "contains_critical": {"type": "boolean"},
                    "local_degree": {"type": "integer"},
                },
            },
        },
        "critical_fates": {
            "type": "array",
            "items": {
                "type": "object",
                "required": ["point", "fate", "asymptotic_valency"],
                "properties": {
                    "point": {"type": "string"},
                    "fate": {
                        "type": "object",
                        "required": ["kind"],
                        "properties": {
                            "kind": {
                                "enum": ["preperiodic", "converges", "unresolved"]
                            },
                        },
                    },
                    "asymptotic_valency": _VALENCY,
                },
            },
        },
        "exposed": {
            "type": "object",
            "required": ["orbits", "union", "undecided", "truncation"],
            "properties": {
                "orbits": {
                    "type": "array",
                    "items": {
                        "type": "object",
                        "required": ["points", "type", "contains_critical",
                                     "in_julia", "size"],
                        "properties": {
                            "points": {"type": "array", "items": {"type": "string"},
                                       "maxItems": 4},
                            "type": {"enum": [1, 2, 3]},
                            "contains_critical": {"type": "boolean"},
                            "in_julia": {"type": ["boolean", "null"]},
                            "asymptotic_valency": _VALENCY,
                            "size": {"type": "integer", "minimum": 1, "maximum": 4},
                        },
                    },
                },
                "union": {"type": "array", "items": {"type": "string"}, "maxItems": 4},
                "undecided": {"type": "array"},
                "truncation": {"type": "object"},
            },
        },
        "atlas": {
            "type": "object",
            "required": ["regions", "iota_p", "iota_c", "unresolved_critical",
                         "julia_is_sphere"],
            "properties": {
                "regions": {"type": "array"},
                "iota_p": {"type": "array"},
                "iota_c": {"type": "array"},
                "unresolved_critical": {"type": "array"},
                "julia_is_sphere": {"type": ["boolean", "null"]},
            },
        },
        "algebra": {
            "type": "object",
            "required": ["julia_fatou", "fatou_regions", "julia", "six_square"],
            "properties": {
                "julia_fatou": _EXTENSION,
                "fatou_regions": {"type": "array"},
                "julia": {"type": "object"},
                "six_square": {
                    "type": "object",
                    "required": ["grid", "corners", "text"],
                },
            },
        },
        "primitive_ideals": {
            "type": "object",
            "required": ["entries", "t0_verdict", "simple_quotients"],
            "properties": {
                "entries": {"type": "array"},
                "t0_verdict": {"enum": ["not_T0", "single_point", "undetermined"]},
                "simple_quotients": {"type": "array", "items": {"type": "string"}},
            },
        },
        "warnings": {"type": "array", "items": _WARNING},
        "notes": {"type": "array", "items": _WARNING},
    },
}
