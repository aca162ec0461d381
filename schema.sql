CREATE TABLE IF NOT EXISTS benchmark (
    id INTEGER PRIMARY KEY,
    name TEXT NOT NULL UNIQUE
);
CREATE TABLE IF NOT EXISTS algorithm (
    id INTEGER PRIMARY KEY,
    benchmark_id INTEGER NOT NULL REFERENCES benchmark(id),
    name TEXT NOT NULL,
    UNIQUE (benchmark_id, name)
);
CREATE TABLE IF NOT EXISTS design (
    id INTEGER PRIMARY KEY,
    algorithm_id INTEGER NOT NULL REFERENCES algorithm(id),
    name TEXT NOT NULL,
    source_ref TEXT,
    function_name TEXT,
    UNIQUE (algorithm_id, name)
);
CREATE TABLE IF NOT EXISTS configuration_space (
    id INTEGER PRIMARY KEY,
    design_id INTEGER NOT NULL REFERENCES design(id),
    csd_text TEXT NOT NULL,
    cardinality INTEGER NOT NULL,
    contributor TEXT NOT NULL,
    created_at TEXT NOT NULL,
    UNIQUE (design_id, csd_text)
);
CREATE TABLE IF NOT EXISTS configuration (
    id INTEGER PRIMARY KEY,
    space_id INTEGER NOT NULL REFERENCES configuration_space(id),
    idx INTEGER NOT NULL,
    UNIQUE (space_id, idx)
);
CREATE TABLE IF NOT EXISTS implementation (
    id INTEGER PRIMARY KEY,
    configuration_id INTEGER NOT NULL REFERENCES configuration(id),
    status TEXT NOT NULL CHECK (status IN ('ok','synth_error','timeout'))
);
CREATE TABLE IF NOT EXISTS synthesis_info (
    implementation_id INTEGER PRIMARY KEY REFERENCES implementation(id),
    timestamp TEXT NOT NULL,
    contributor TEXT NOT NULL,
    tool_name TEXT NOT NULL,
    tool_version TEXT NOT NULL,
    fpga_part TEXT NOT NULL,
    clock_period_ns REAL NOT NULL
);
CREATE TABLE IF NOT EXISTS resource_usage (
    implementation_id INTEGER PRIMARY KEY REFERENCES implementation(id),
    ff INTEGER NOT NULL CHECK (ff >= 0),
    lut INTEGER NOT NULL CHECK (lut >= 0),
    bram INTEGER NOT NULL CHECK (bram >= 0),
    dsp INTEGER NOT NULL CHECK (dsp >= 0)
);
CREATE TABLE IF NOT EXISTS performance (
    implementation_id INTEGER PRIMARY KEY REFERENCES implementation(id),
    latency_cycles INTEGER NOT NULL CHECK (latency_cycles >= 0),
    achieved_period_ns REAL NOT NULL
);
CREATE INDEX IF NOT EXISTS idx_implementation_config
    ON implementation(configuration_id);
CREATE TRIGGER IF NOT EXISTS configuration_idx_in_range
BEFORE INSERT ON configuration
WHEN NOT (typeof(NEW.idx) = 'integer' AND NEW.idx >= 0 AND NEW.idx <
    (SELECT cardinality FROM configuration_space WHERE id = NEW.space_id))
BEGIN
    SELECT RAISE(ABORT, 'configuration index out of range');
END;
CREATE TRIGGER IF NOT EXISTS one_ok_result_per_tool
BEFORE INSERT ON synthesis_info
WHEN EXISTS (
    SELECT 1 FROM implementation n
    JOIN implementation i ON i.configuration_id = n.configuration_id
    JOIN synthesis_info s ON s.implementation_id = i.id
    WHERE n.id = NEW.implementation_id AND n.status = 'ok' AND i.status = 'ok'
        AND s.tool_name = NEW.tool_name AND s.tool_version = NEW.tool_version
        AND s.fpga_part = NEW.fpga_part
)
BEGIN
    SELECT RAISE(ABORT, 'duplicate ok implementation');
END;
