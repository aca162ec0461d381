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
CREATE TABLE IF NOT EXISTS tool (
    id INTEGER PRIMARY KEY,
    name TEXT NOT NULL,
    version TEXT NOT NULL,
    part TEXT NOT NULL,
    UNIQUE (name, version, part)
);
CREATE TABLE IF NOT EXISTS implementation (
    id INTEGER PRIMARY KEY,
    configuration_id INTEGER NOT NULL REFERENCES configuration(id),
    tool_id INTEGER NOT NULL REFERENCES tool(id),
    status TEXT NOT NULL CHECK (status = 'ok' OR status = 'synth_error' OR status = 'timeout'),
    timestamp TEXT NOT NULL,
    contributor TEXT NOT NULL,
    clock_period_ns REAL NOT NULL
        CHECK (clock_period_ns > 0 AND clock_period_ns < 9e999),
    ff INTEGER CHECK (ff >= 0),
    lut INTEGER CHECK (lut >= 0),
    bram INTEGER CHECK (bram >= 0),
    dsp INTEGER CHECK (dsp >= 0),
    latency_cycles INTEGER CHECK (latency_cycles >= 0),
    achieved_period_ns REAL
        CHECK (achieved_period_ns > 0 AND achieved_period_ns < 9e999),
    CONSTRAINT whole_result CHECK (CASE WHEN status = 'ok'
        THEN typeof(ff) = 'integer' AND typeof(lut) = 'integer' AND typeof(bram) = 'integer'
            AND typeof(dsp) = 'integer' AND typeof(latency_cycles) = 'integer'
            AND typeof(achieved_period_ns) = 'real'
        ELSE coalesce(ff, lut, bram, dsp, latency_cycles, achieved_period_ns) IS NULL
    END)
);
CREATE INDEX IF NOT EXISTS idx_implementation_config
    ON implementation(configuration_id);
CREATE UNIQUE INDEX IF NOT EXISTS one_ok_result_per_tool
    ON implementation(configuration_id, tool_id) WHERE status = 'ok';
CREATE VIEW IF NOT EXISTS synthesis_info AS
    SELECT i.id AS implementation_id, i.timestamp, i.contributor,
        t.name AS tool_name, t.version AS tool_version, t.part AS fpga_part,
        i.clock_period_ns
    FROM implementation i JOIN tool t ON t.id = i.tool_id;
CREATE VIEW IF NOT EXISTS resource_usage AS
    SELECT id AS implementation_id, ff, lut, bram, dsp
    FROM implementation WHERE status = 'ok';
CREATE VIEW IF NOT EXISTS performance AS
    SELECT id AS implementation_id, latency_cycles, achieved_period_ns
    FROM implementation WHERE status = 'ok';
CREATE TRIGGER IF NOT EXISTS configuration_idx_in_range
BEFORE INSERT ON configuration
WHEN NOT (typeof(NEW.idx) = 'integer' AND NEW.idx >= 0 AND NEW.idx <
    (SELECT cardinality FROM configuration_space WHERE id = NEW.space_id))
BEGIN
    SELECT RAISE(ABORT, 'configuration index out of range');
END;
