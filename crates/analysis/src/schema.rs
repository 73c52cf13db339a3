//! Declarative per-SUT schemas: files, dialects, and test read-sets.

/// Which extracted dialect model governs a configuration file.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Dialect {
    /// `my.cnf` — sectioned INI validated by [`crate::mysql`].
    MySqlIni,
    /// `postgresql.conf` — key/value validated by [`crate::postgres`].
    PostgresKv,
    /// `httpd.conf` — Apache syntax validated by [`crate::apache`].
    ApacheHttpd,
    /// tinydns `data` — line records validated by [`crate::tinydns`].
    TinyDns,
    /// BIND zone files — parsed but not statically modeled.
    BindZone,
    /// App-server `server.xml` — parsed but not statically modeled.
    AppServerXml,
}

impl Dialect {
    /// Whether a full validation model exists, enabling
    /// `WillFailValidate` and `SemanticallySilent` verdicts. Files of
    /// unmodeled dialects still get sound `WillFailParse` verdicts
    /// (the round-trip re-parse uses the real format parser).
    pub fn is_fully_modeled(self) -> bool {
        matches!(
            self,
            Dialect::MySqlIni | Dialect::PostgresKv | Dialect::ApacheHttpd | Dialect::TinyDns
        )
    }

    /// The exact startup diagnostic a simulator of this dialect emits
    /// when its configuration file fails to parse, given the format
    /// parser's error text. The simulators and the static linter both
    /// build parse-failure diagnostics through this one function, so
    /// the strings cannot drift — which is what lets a static-triage
    /// campaign synthesize `DetectedAtStartup` outcomes byte-identical
    /// to a real start.
    pub fn parse_failure_diagnostic(self, error: &str) -> String {
        match self {
            Dialect::MySqlIni => format!("error while reading my.cnf: {error}"),
            Dialect::PostgresKv => format!("syntax error in postgresql.conf: {error}"),
            Dialect::ApacheHttpd => format!("Syntax error in httpd.conf: {error}"),
            Dialect::TinyDns => format!("tinydns-data: fatal: {error}"),
            Dialect::BindZone => format!("dns_master_load: {error}"),
            Dialect::AppServerXml => format!("server.xml is not well-formed: {error}"),
        }
    }
}

/// One configuration file a SUT consumes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FileSchema {
    /// File name, as used in `ConfigSet`/`ConfigPayload`.
    pub file: &'static str,
    /// Format name, resolvable via `conferr_formats::format_by_name`.
    pub format: &'static str,
    /// Which dialect model validates it.
    pub dialect: Dialect,
}

/// What part of a file a functional test reads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReadScope {
    /// The test observes the whole file; no edit to it is prunable.
    WholeFile,
    /// The test observes only these directives (canonical names, as
    /// produced by the dialect's name resolution).
    Directives(&'static [&'static str]),
}

/// The declared read-set of one functional test: which directives of
/// which files its outcome can depend on. The soundness obligation
/// runs *outward*: any file or directive **not** listed here must be
/// provably unobservable by the test.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TestImpact {
    /// Test name, as returned by `SystemUnderTest::test_names`.
    pub test: &'static str,
    /// Per-file read scopes. Files absent from this list are never
    /// read by the test.
    pub reads: &'static [(&'static str, ReadScope)],
}

/// Everything a simulator statically knows about its configuration
/// language, extracted into one declarative table.
///
/// ```
/// use conferr_analysis::{schema_for, Dialect, ReadScope};
///
/// let schema = schema_for("mysql-sim").expect("mysql is modeled");
/// assert_eq!(schema.system, "mysql-sim");
/// assert_eq!(schema.file("my.cnf").unwrap().dialect, Dialect::MySqlIni);
///
/// // The smoke test reads only the port and the two engine limits;
/// // edits to any other [mysqld] variable cannot change its outcome.
/// let test = schema.test("connect-and-query").unwrap();
/// assert!(matches!(test.reads[0].1, ReadScope::Directives(_)));
///
/// // Short names work too; unknown systems have no schema.
/// assert!(schema_for("postgres").is_some());
/// assert!(schema_for("nginx").is_none());
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DirectiveSchema {
    /// The SUT's name, as returned by `SystemUnderTest::name`.
    pub system: &'static str,
    /// The configuration files the SUT consumes.
    pub files: &'static [FileSchema],
    /// Declared read-sets of the SUT's functional tests. Tests absent
    /// from this list are treated as reading everything.
    pub tests: &'static [TestImpact],
}

impl DirectiveSchema {
    /// Looks up a file's schema by name.
    pub fn file(&self, name: &str) -> Option<&FileSchema> {
        self.files.iter().find(|f| f.file == name)
    }

    /// Looks up a test's declared read-set by name.
    pub fn test(&self, name: &str) -> Option<&TestImpact> {
        self.tests.iter().find(|t| t.test == name)
    }
}

/// MySQL: the smoke test dials port 3306 and exercises the engine,
/// whose limits derive from `max_connections`/`max_allowed_packet`;
/// every other server variable is absorbed without observable effect
/// on the test. The dump tool re-reads the raw file, so its read
/// scope is the whole file.
pub static MYSQL_SCHEMA: DirectiveSchema = DirectiveSchema {
    system: "mysql-sim",
    files: &[FileSchema {
        file: "my.cnf",
        format: "ini",
        dialect: Dialect::MySqlIni,
    }],
    tests: &[
        TestImpact {
            test: "connect-and-query",
            reads: &[(
                "my.cnf",
                ReadScope::Directives(&["port", "max_connections", "max_allowed_packet"]),
            )],
        },
        TestImpact {
            test: "mysqldump-tool",
            reads: &[("my.cnf", ReadScope::WholeFile)],
        },
    ],
};

/// Postgres: the engine's only configurable limit is
/// `max_connections` (the statement cap is fixed), so the smoke test
/// reads exactly one directive.
pub static POSTGRES_SCHEMA: DirectiveSchema = DirectiveSchema {
    system: "postgres-sim",
    files: &[FileSchema {
        file: "postgresql.conf",
        format: "kv",
        dialect: Dialect::PostgresKv,
    }],
    tests: &[TestImpact {
        test: "connect-and-query",
        reads: &[(
            "postgresql.conf",
            ReadScope::Directives(&["max_connections"]),
        )],
    }],
};

/// Apache: the HTTP probe observes listen sockets, host routing and
/// document lookup — `DefaultType`/`AddType` affect only the
/// Content-Type header, never the response status the probe checks.
/// Names are canonical-lowercase, as Apache resolution produces.
pub static APACHE_SCHEMA: DirectiveSchema = DirectiveSchema {
    system: "apache-sim",
    files: &[FileSchema {
        file: "httpd.conf",
        format: "apache",
        dialect: Dialect::ApacheHttpd,
    }],
    tests: &[TestImpact {
        test: "http-get",
        reads: &[(
            "httpd.conf",
            ReadScope::Directives(&[
                "listen",
                "servername",
                "documentroot",
                "directoryindex",
                "alias",
                "scriptalias",
            ]),
        )],
    }],
};

/// BIND: each liveness probe reads its own zone file only. This is
/// sound because zone loading is additive across files — an edit to
/// the *other* zone file can add records but never remove the probed
/// zone's SOA (and a load failure fails startup before any test).
pub static BIND_SCHEMA: DirectiveSchema = DirectiveSchema {
    system: "bind-sim",
    files: &[
        FileSchema {
            file: "forward.zone",
            format: "zone",
            dialect: Dialect::BindZone,
        },
        FileSchema {
            file: "reverse.zone",
            format: "zone",
            dialect: Dialect::BindZone,
        },
    ],
    tests: &[
        TestImpact {
            test: "forward-zone-alive",
            reads: &[("forward.zone", ReadScope::WholeFile)],
        },
        TestImpact {
            test: "reverse-zone-alive",
            reads: &[("reverse.zone", ReadScope::WholeFile)],
        },
    ],
};

/// djbdns: one data file defines both zones, so both probes read all
/// of it.
pub static DJBDNS_SCHEMA: DirectiveSchema = DirectiveSchema {
    system: "djbdns-sim",
    files: &[FileSchema {
        file: "data",
        format: "tinydns",
        dialect: Dialect::TinyDns,
    }],
    tests: &[
        TestImpact {
            test: "forward-zone-alive",
            reads: &[("data", ReadScope::WholeFile)],
        },
        TestImpact {
            test: "reverse-zone-alive",
            reads: &[("data", ReadScope::WholeFile)],
        },
    ],
};

/// App server: the deploy check walks the whole descriptor.
pub static APPSERVER_SCHEMA: DirectiveSchema = DirectiveSchema {
    system: "appserver-sim",
    files: &[FileSchema {
        file: "server.xml",
        format: "xml",
        dialect: Dialect::AppServerXml,
    }],
    tests: &[TestImpact {
        test: "deploy-check",
        reads: &[("server.xml", ReadScope::WholeFile)],
    }],
};

/// Looks up a system's schema by SUT name (`mysql-sim`) or short name
/// (`mysql`).
pub fn schema_for(name: &str) -> Option<&'static DirectiveSchema> {
    let short = name.strip_suffix("-sim").unwrap_or(name);
    match short {
        "mysql" => Some(&MYSQL_SCHEMA),
        "postgres" => Some(&POSTGRES_SCHEMA),
        "apache" => Some(&APACHE_SCHEMA),
        "bind" => Some(&BIND_SCHEMA),
        "djbdns" => Some(&DJBDNS_SCHEMA),
        "appserver" => Some(&APPSERVER_SCHEMA),
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn schema_lookup_accepts_both_spellings() {
        for (long, schema) in [
            ("mysql-sim", &MYSQL_SCHEMA),
            ("postgres-sim", &POSTGRES_SCHEMA),
            ("apache-sim", &APACHE_SCHEMA),
            ("bind-sim", &BIND_SCHEMA),
            ("djbdns-sim", &DJBDNS_SCHEMA),
            ("appserver-sim", &APPSERVER_SCHEMA),
        ] {
            assert_eq!(schema_for(long), Some(schema));
            assert_eq!(schema_for(long.strip_suffix("-sim").unwrap()), Some(schema));
            assert_eq!(schema.system, long);
        }
        assert_eq!(schema_for("nginx"), None);
    }

    #[test]
    fn declared_reads_reference_declared_files() {
        for schema in [
            &MYSQL_SCHEMA,
            &POSTGRES_SCHEMA,
            &APACHE_SCHEMA,
            &BIND_SCHEMA,
            &DJBDNS_SCHEMA,
            &APPSERVER_SCHEMA,
        ] {
            for test in schema.tests {
                for (file, _) in test.reads {
                    assert!(
                        schema.file(file).is_some(),
                        "{}: test {} reads undeclared file {}",
                        schema.system,
                        test.test,
                        file
                    );
                }
            }
        }
    }

    #[test]
    fn modeled_and_refinable_dialects_are_consistent() {
        assert!(Dialect::TinyDns.is_fully_modeled());
        assert!(!Dialect::BindZone.is_fully_modeled());
        // Touch maps refine only in files whose format parses a line in
        // place, and name directives by the dialect's own resolution:
        // every such file needs a dialect that resolves names.
        let comment = conferr_tree::Node::new("comment").with_text("# note");
        for schema in [
            &MYSQL_SCHEMA,
            &POSTGRES_SCHEMA,
            &APACHE_SCHEMA,
            &BIND_SCHEMA,
            &DJBDNS_SCHEMA,
            &APPSERVER_SCHEMA,
        ] {
            for fs in schema.files {
                let format = conferr_formats::format_by_name(fs.format).unwrap();
                let refinable = format.parses_in_place(&comment);
                let resolves_names = matches!(
                    fs.dialect,
                    Dialect::MySqlIni | Dialect::PostgresKv | Dialect::ApacheHttpd
                );
                assert_eq!(refinable, resolves_names, "{}: {}", schema.system, fs.file);
            }
        }
    }
}
