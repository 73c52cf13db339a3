//! MySQL 5.1 dialect model, extracted from the simulator.
//!
//! The registries and decision functions here are the *single source
//! of truth*: `conferr-sut`'s `MySqlSim` calls them (keeping only the
//! diagnostic `message`), and the fault linter calls them to predict
//! startup outcomes. Every documented flaw (silent defaults for
//! out-of-bounds values, `1M0` suffix parsing, valueless directives,
//! latent tool-section errors) therefore behaves identically on the
//! static and dynamic paths.

use std::borrow::Cow;
use std::sync::{Arc, LazyLock};

use conferr_tree::Node;

use crate::value::{
    parse_bool_mysql, parse_int_strict, parse_size_mysql, resolve_prefix, DirectiveSpec,
    MySqlParse, PrefixError, RegistryValues, ValueType,
};
use crate::verdict::{ValidationClass, Violation};

/// Registry of `[mysqld]` server variables (a representative subset of
/// MySQL 5.1's ~280 system variables; bounds follow the 5.1 manual).
pub const SERVER_REGISTRY: &[DirectiveSpec] = &[
    DirectiveSpec::new("port", ValueType::Int { min: 0, max: 65535 }, "3306"),
    DirectiveSpec::new("socket", ValueType::Text, "/var/run/mysqld/mysqld.sock"),
    DirectiveSpec::new("datadir", ValueType::Text, "/var/lib/mysql"),
    DirectiveSpec::new("basedir", ValueType::Text, "/usr"),
    DirectiveSpec::new("tmpdir", ValueType::Text, "/tmp"),
    DirectiveSpec::new("bind_address", ValueType::Text, "0.0.0.0"),
    DirectiveSpec::new(
        "key_buffer_size",
        ValueType::Size {
            min: 8192,
            max: 4_294_967_295,
        },
        "8388608",
    ),
    DirectiveSpec::new(
        "max_allowed_packet",
        ValueType::Size {
            min: 1024,
            max: 1_073_741_824,
        },
        "1048576",
    ),
    DirectiveSpec::new(
        "table_open_cache",
        ValueType::Int {
            min: 1,
            max: 524288,
        },
        "64",
    ),
    DirectiveSpec::new(
        "sort_buffer_size",
        ValueType::Size {
            min: 32768,
            max: 4_294_967_295,
        },
        "2097144",
    ),
    DirectiveSpec::new(
        "net_buffer_length",
        ValueType::Size {
            min: 1024,
            max: 1_048_576,
        },
        "16384",
    ),
    DirectiveSpec::new(
        "read_buffer_size",
        ValueType::Size {
            min: 8192,
            max: 2_147_479_552,
        },
        "131072",
    ),
    DirectiveSpec::new(
        "read_rnd_buffer_size",
        ValueType::Size {
            min: 8192,
            max: 4_294_967_295,
        },
        "262144",
    ),
    DirectiveSpec::new(
        "myisam_sort_buffer_size",
        ValueType::Size {
            min: 4096,
            max: 4_294_967_295,
        },
        "8388608",
    ),
    DirectiveSpec::new(
        "thread_cache_size",
        ValueType::Int { min: 0, max: 16384 },
        "0",
    ),
    DirectiveSpec::new(
        "thread_stack",
        ValueType::Size {
            min: 131072,
            max: 4_294_967_295,
        },
        "196608",
    ),
    DirectiveSpec::new(
        "max_connections",
        ValueType::Int {
            min: 1,
            max: 100000,
        },
        "151",
    ),
    DirectiveSpec::new(
        "max_connect_errors",
        ValueType::Int {
            min: 1,
            max: 4_294_967_295,
        },
        "10",
    ),
    DirectiveSpec::new(
        "wait_timeout",
        ValueType::Int {
            min: 1,
            max: 31536000,
        },
        "28800",
    ),
    DirectiveSpec::new(
        "interactive_timeout",
        ValueType::Int {
            min: 1,
            max: 31536000,
        },
        "28800",
    ),
    DirectiveSpec::new(
        "query_cache_size",
        ValueType::Size {
            min: 0,
            max: 4_294_967_295,
        },
        "0",
    ),
    DirectiveSpec::new(
        "tmp_table_size",
        ValueType::Size {
            min: 1024,
            max: 4_294_967_295,
        },
        "16777216",
    ),
    DirectiveSpec::new(
        "join_buffer_size",
        ValueType::Size {
            min: 8192,
            max: 4_294_967_295,
        },
        "131072",
    ),
    DirectiveSpec::new(
        "bulk_insert_buffer_size",
        ValueType::Size {
            min: 0,
            max: 4_294_967_295,
        },
        "8388608",
    ),
    DirectiveSpec::new(
        "server_id",
        ValueType::Int {
            min: 0,
            max: 4_294_967_295,
        },
        "0",
    ),
    DirectiveSpec::new("back_log", ValueType::Int { min: 1, max: 65535 }, "50"),
    DirectiveSpec::new(
        "open_files_limit",
        ValueType::Int { min: 0, max: 65535 },
        "0",
    ),
    DirectiveSpec::new("skip_external_locking", ValueType::Bool, "1"),
    DirectiveSpec::new("skip_networking", ValueType::Bool, "0"),
    DirectiveSpec::new("log_error", ValueType::Text, "/var/log/mysql/error.log"),
    DirectiveSpec::new("slow_query_log", ValueType::Bool, "0"),
    DirectiveSpec::new(
        "long_query_time",
        ValueType::Int {
            min: 1,
            max: 31536000,
        },
        "10",
    ),
    DirectiveSpec::new(
        "default_storage_engine",
        ValueType::Enum(&["MyISAM", "InnoDB", "MEMORY", "CSV"]),
        "MyISAM",
    ),
    DirectiveSpec::new(
        "character_set_server",
        ValueType::Enum(&["latin1", "utf8", "ascii", "ucs2"]),
        "latin1",
    ),
    DirectiveSpec::new("collation_server", ValueType::Text, "latin1_swedish_ci"),
    DirectiveSpec::new("sql_mode", ValueType::Text, ""),
    DirectiveSpec::new("ft_min_word_len", ValueType::Int { min: 1, max: 84 }, "4"),
    DirectiveSpec::new(
        "innodb_buffer_pool_size",
        ValueType::Size {
            min: 1_048_576,
            max: 4_294_967_295,
        },
        "8388608",
    ),
    DirectiveSpec::new(
        "innodb_log_file_size",
        ValueType::Size {
            min: 1_048_576,
            max: 4_294_967_295,
        },
        "5242880",
    ),
    DirectiveSpec::new(
        "innodb_additional_mem_pool_size",
        ValueType::Size {
            min: 524_288,
            max: 4_294_967_295,
        },
        "1048576",
    ),
    DirectiveSpec::new(
        "innodb_log_buffer_size",
        ValueType::Size {
            min: 262_144,
            max: 4_294_967_295,
        },
        "1048576",
    ),
    DirectiveSpec::new(
        "query_cache_limit",
        ValueType::Size {
            min: 0,
            max: 4_294_967_295,
        },
        "1048576",
    ),
    DirectiveSpec::new(
        "max_heap_table_size",
        ValueType::Size {
            min: 16384,
            max: 4_294_967_295,
        },
        "16777216",
    ),
    DirectiveSpec::new("innodb_data_home_dir", ValueType::Text, "/var/lib/mysql"),
    DirectiveSpec::new(
        "innodb_log_group_home_dir",
        ValueType::Text,
        "/var/lib/mysql",
    ),
    DirectiveSpec::new("pid_file", ValueType::Text, "/var/run/mysqld/mysqld.pid"),
    DirectiveSpec::new(
        "general_log_file",
        ValueType::Text,
        "/var/log/mysql/mysql.log",
    ),
    DirectiveSpec::new(
        "slow_query_log_file",
        ValueType::Text,
        "/var/log/mysql/mysql-slow.log",
    ),
    DirectiveSpec::new("character_sets_dir", ValueType::Text, "/usr/share/charsets"),
    DirectiveSpec::new("init_connect", ValueType::Text, "SET NAMES latin1"),
    DirectiveSpec::new("ft_stopword_file", ValueType::Text, "/usr/share/stopwords"),
    DirectiveSpec::new("log_bin", ValueType::Text, "/var/log/mysql/mysql-bin"),
    DirectiveSpec::new("relay_log", ValueType::Text, "/var/log/mysql/relay-bin"),
    DirectiveSpec::new(
        "log_bin_index",
        ValueType::Text,
        "/var/log/mysql/mysql-bin.index",
    ),
    DirectiveSpec::new(
        "relay_log_index",
        ValueType::Text,
        "/var/log/mysql/relay-bin.index",
    ),
    DirectiveSpec::new("plugin_dir", ValueType::Text, "/usr/lib/mysql/plugin"),
    DirectiveSpec::new("ssl_ca", ValueType::Text, "/etc/mysql/cacert.pem"),
    DirectiveSpec::new("ssl_cert", ValueType::Text, "/etc/mysql/server-cert.pem"),
    DirectiveSpec::new("ssl_key", ValueType::Text, "/etc/mysql/server-key.pem"),
    DirectiveSpec::new("init_file", ValueType::Text, "/etc/mysql/init.sql"),
    DirectiveSpec::new("language", ValueType::Text, "/usr/share/mysql/english"),
    DirectiveSpec::new("report_user", ValueType::Text, "repl"),
    DirectiveSpec::new("master_host", ValueType::Text, "replica-source.example.com"),
    DirectiveSpec::new("master_user", ValueType::Text, "repl"),
    DirectiveSpec::new("report_host", ValueType::Text, "db1.example.com"),
    DirectiveSpec::new("secure_auth_path", ValueType::Text, "/var/lib/mysql/auth"),
    DirectiveSpec::new("slave_load_tmpdir", ValueType::Text, "/tmp"),
];

/// Registry for the `mysqldump` tool section (parsed only when the
/// tool runs — the latent-error design flaw).
pub const DUMP_REGISTRY: &[DirectiveSpec] = &[
    DirectiveSpec::new("quick", ValueType::Bool, "0"),
    DirectiveSpec::new(
        "max_allowed_packet",
        ValueType::Size {
            min: 1024,
            max: 1_073_741_824,
        },
        "25165824",
    ),
    DirectiveSpec::new("single_transaction", ValueType::Bool, "0"),
    DirectiveSpec::new("compress", ValueType::Bool, "0"),
];

/// The port an administrator's plain `mysql -h 127.0.0.1` invocation
/// uses — the functional test connects here.
pub const DEFAULT_PORT: &str = "3306";

/// Directories that exist on the simulated host; path-valued
/// directives are validated against these, as the real server does
/// when opening its data directory, socket and log files.
pub const EXISTING_DIRS: &[&str] = &[
    "/var/lib/mysql",
    "/var/run/mysqld",
    "/var/log/mysql",
    "/usr",
    "/tmp",
];

/// The path-valued directives checked at startup, in check order.
pub const PATH_DIRECTIVES: &[&str] = &["datadir", "basedir", "tmpdir", "socket", "log_error"];

/// Whether a path points at (or into) a directory that exists on the
/// simulated host.
pub fn path_is_valid(path: &str) -> bool {
    let t = path.trim();
    if EXISTING_DIRS.contains(&t) {
        return true;
    }
    // A file path is fine when its parent directory exists.
    match t.rfind('/') {
        Some(0) => false,
        Some(idx) => EXISTING_DIRS.contains(&&t[..idx]),
        None => false,
    }
}

/// Normalises an option name: `-` and `_` are interchangeable.
pub fn normalize_name(name: &str) -> String {
    name.replace('-', "_")
}

/// All canonical server-variable names a raw spelling may resolve to:
/// one name for an exact or unambiguous-prefix match, every candidate
/// for an ambiguous prefix, and the normalised raw spelling when
/// nothing matches. Used by touch-set refinement, which must cover
/// every directive an edit *could* bind to.
pub fn canonical_names(raw: &str) -> Vec<String> {
    let name = normalize_name(raw);
    match resolve_prefix(server_names(), &name) {
        Ok(i) => vec![SERVER_REGISTRY[i].name.to_string()],
        Err(PrefixError::Unknown) => vec![name],
        Err(PrefixError::Ambiguous { candidates }) => candidates,
    }
}

/// The server variables' names, in registry order.
fn server_names() -> impl Iterator<Item = &'static str> + Clone {
    SERVER_REGISTRY.iter().map(|s| s.name)
}

/// Every server variable at its default: the table each validation
/// starts from.
static SERVER_DEFAULTS: LazyLock<RegistryValues> = LazyLock::new(|| {
    RegistryValues::new(SERVER_REGISTRY, SERVER_REGISTRY.iter().map(|s| s.default))
});

/// Parses and validates one `[mysqld]` directive, applying the
/// lenient value discipline. Stores the resolved value in `vars` or
/// reports the fatal startup diagnostic.
fn absorb_server_directive(vars: &mut RegistryValues, node: &Node) -> Result<(), Violation> {
    let raw_name = node.attr("name").unwrap_or("");
    let name = normalize_name(raw_name);
    let index = match resolve_prefix(server_names(), &name) {
        Ok(i) => i,
        Err(PrefixError::Unknown) => {
            return Err(Violation::new(
                name,
                ValidationClass::UnknownDirective,
                format!("unknown variable '{raw_name}'"),
            ));
        }
        Err(PrefixError::Ambiguous { candidates }) => {
            return Err(Violation::new(
                name,
                ValidationClass::AmbiguousDirective,
                format!(
                    "ambiguous option '{raw_name}' (could be {})",
                    candidates.join(", ")
                ),
            ));
        }
    };
    let spec = &SERVER_REGISTRY[index];
    let spec_name = spec.name;
    let default = Cow::Borrowed(spec.default);
    let bare = node.attr("bare") == Some("yes");
    let raw_value = node.text().unwrap_or("");

    let value = if bare {
        match spec.vtype {
            // A bare option enables boolean flags ...
            ValueType::Bool => Cow::Borrowed("1"),
            // ... and is silently replaced by the default for
            // value-carrying directives (flaw).
            _ => default,
        }
    } else if raw_value.is_empty() && !matches!(spec.vtype, ValueType::Bool) {
        // FLAW (paper §5.2): directives without a value are
        // accepted and replaced with defaults.
        default
    } else {
        match spec.vtype {
            ValueType::Int { min, max } => match parse_int_strict(raw_value) {
                Some(v) if v >= min && v <= max => Cow::Owned(v.to_string()),
                // FLAW (paper §5.2): out-of-bounds values are
                // silently ignored and the default used instead.
                Some(_) => default,
                None => {
                    return Err(Violation::new(
                        spec_name,
                        ValidationClass::InvalidValue,
                        format!(
                            "option '{spec_name}' requires an integer argument, got \
                             '{raw_value}'"
                        ),
                    ))
                }
            },
            ValueType::Size { min, max } => match parse_size_mysql(raw_value) {
                // FLAW: suffix parsing stops at the first
                // multiplier symbol, so "1M0" lands here as 1 MiB.
                MySqlParse::Value(v) if v >= min && v <= max => Cow::Owned(v.to_string()),
                // FLAW: out-of-bounds → silent default.
                MySqlParse::Value(_) => default,
                // FLAW: suffix-leading values → silent default.
                MySqlParse::SilentDefault => default,
                MySqlParse::Invalid => {
                    return Err(Violation::new(
                        spec_name,
                        ValidationClass::InvalidValue,
                        format!("option '{spec_name}' got an invalid size argument '{raw_value}'"),
                    ))
                }
            },
            ValueType::Bool => match parse_bool_mysql(raw_value) {
                Some(v) => Cow::Borrowed(if v { "1" } else { "0" }),
                // Boolean typos ARE detected (paper §5.5 excludes
                // booleans because both systems catch them).
                None => {
                    return Err(Violation::new(
                        spec_name,
                        ValidationClass::InvalidValue,
                        format!(
                            "variable '{spec_name}' can't be set to the value of '{raw_value}'"
                        ),
                    ))
                }
            },
            ValueType::Enum(options) => {
                match options.iter().find(|o| o.eq_ignore_ascii_case(raw_value)) {
                    Some(o) => Cow::Borrowed(*o),
                    None => {
                        return Err(Violation::new(
                            spec_name,
                            ValidationClass::InvalidValue,
                            format!(
                                "variable '{spec_name}' can't be set to the value of \
                                 '{raw_value}'"
                            ),
                        ))
                    }
                }
            }
            ValueType::Float { .. } | ValueType::Text => Cow::Owned(raw_value.to_string()),
        }
    };
    vars.set(index, value);
    Ok(())
}

/// The `mysqld` startup validation over a parsed `my.cnf` tree: start
/// from the defaults, absorb the `[mysqld]` group (only — other
/// groups stay latent), then check path-valued directives. Returns
/// the resolved server variables, one per [`SERVER_REGISTRY`] entry.
///
/// # Errors
///
/// The first fatal [`Violation`], exactly as `mysqld` would report it.
pub fn validate_server_config(root: &Node) -> Result<RegistryValues, Violation> {
    let mut vars = SERVER_DEFAULTS.clone();
    // DESIGN FLAW (paper §5.2): only the server's own group is
    // parsed at startup; every other group — [client],
    // [mysqldump], even misspelled group names — is skipped, so
    // errors there stay latent.
    for section in root.children_of_kind("section") {
        if section.attr("name") != Some("mysqld") {
            continue;
        }
        for node in section.children_of_kind("directive") {
            absorb_server_directive(&mut vars, node)?;
        }
    }
    // Path-valued directives must point at an existing location,
    // or the daemon aborts ("Can't read dir", "Can't create ...").
    for path_var in PATH_DIRECTIVES {
        if let Some(path) = vars.get(path_var) {
            if !path_is_valid(path) {
                return Err(Violation::new(
                    *path_var,
                    ValidationClass::InvalidPath,
                    format!("[ERROR] {path_var}: Can't read dir of '{path}' (Errcode: 2)"),
                ));
            }
        }
    }
    Ok(vars)
}

/// The `mysqldump` option check the tool applies to its own sections
/// of the shared file when it finally runs.
///
/// # Errors
///
/// A [`Violation`] carrying the tool's verbatim diagnostic. Note this
/// is *not* a startup failure — tool-section errors are latent.
pub fn check_dump_config(root: &Node) -> Result<(), Violation> {
    for section in root.children_of_kind("section") {
        if section.attr("name") != Some("mysqldump") {
            continue;
        }
        for node in section.children_of_kind("directive") {
            let name = normalize_name(node.attr("name").unwrap_or(""));
            if resolve_prefix(DUMP_REGISTRY.iter().map(|s| s.name), &name).is_err() {
                return Err(Violation::new(
                    name.clone(),
                    ValidationClass::UnknownDirective,
                    format!("mysqldump: unknown option '--{name}'"),
                ));
            }
        }
    }
    Ok(())
}

/// Everything MySQL's functional tests can observe of a `my.cnf`:
/// `connect-and-query` reads the resolved server variables (port,
/// engine limits); `mysqldump-tool` re-reads the tool sections, so
/// their check's outcome is part of it too.
#[derive(Debug, Clone, PartialEq)]
pub struct ServerModel {
    /// The resolved `[mysqld]` variables, shared with the simulator's
    /// startup state built from them.
    pub vars: Arc<RegistryValues>,
    /// The `mysqldump` diagnostic for the tool sections, if any.
    pub dump_error: Option<String>,
}

/// The semantic fingerprint the linter compares against the
/// baseline's with `==`.
///
/// # Errors
///
/// The fatal startup [`Violation`], when validation fails.
pub fn fingerprint(root: &Node) -> Result<ServerModel, Violation> {
    Ok(ServerModel {
        vars: Arc::new(validate_server_config(root)?),
        dump_error: check_dump_config(root).err().map(|v| v.message),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use conferr_formats::{ConfigFormat, IniFormat};
    use conferr_tree::ConfTree;

    fn parse(text: &str) -> ConfTree {
        IniFormat::new().parse(text).expect("fixture parses")
    }

    #[test]
    fn valid_config_resolves_with_defaults_seeded() {
        let tree = parse("[mysqld]\nport=3307\n");
        let vars = validate_server_config(tree.root()).expect("valid");
        assert_eq!(vars.get("port"), Some("3307"));
        // Unset variables carry their defaults.
        assert_eq!(vars.get("back_log"), Some("50"));
    }

    #[test]
    fn unknown_variable_is_a_violation() {
        let tree = parse("[mysqld]\nprot=3306\n");
        let err = validate_server_config(tree.root()).unwrap_err();
        assert_eq!(err.class, ValidationClass::UnknownDirective);
        assert_eq!(err.message, "unknown variable 'prot'");
    }

    #[test]
    fn ambiguous_prefix_is_a_violation() {
        let tree = parse("[mysqld]\nmax_c=10\n");
        let err = validate_server_config(tree.root()).unwrap_err();
        assert_eq!(err.class, ValidationClass::AmbiguousDirective);
        assert!(err.message.starts_with("ambiguous option 'max_c'"));
    }

    /// The value `name` resolves to when `[mysqld]` holds `directives`.
    fn resolved(directives: &str, name: &str) -> String {
        let tree = parse(&format!("[mysqld]\n{directives}\n"));
        let vars = validate_server_config(tree.root()).expect("valid");
        vars.get(name).expect("a server variable").to_string()
    }

    #[test]
    fn ambiguous_prefixes_list_their_candidates_verbatim() {
        for (raw, message) in [
            (
                "max_c",
                "ambiguous option 'max_c' (could be max_connections, max_connect_errors)",
            ),
            (
                "max-c",
                "ambiguous option 'max-c' (could be max_connections, max_connect_errors)",
            ),
            (
                "query_cache",
                "ambiguous option 'query_cache' (could be query_cache_size, query_cache_limit)",
            ),
        ] {
            let tree = parse(&format!("[mysqld]\n{raw}=10\n"));
            let err = validate_server_config(tree.root()).unwrap_err();
            assert_eq!(err.class, ValidationClass::AmbiguousDirective, "{raw}");
            assert_eq!(err.directive, raw.replace('-', "_"));
            assert_eq!(err.message, message);
        }
    }

    #[test]
    fn exact_names_win_over_longer_names_they_prefix() {
        let directives = "log_bin=/var/log/mysql/a\nrelay_log=/var/log/mysql/b";
        assert_eq!(resolved(directives, "log_bin"), "/var/log/mysql/a");
        assert_eq!(resolved(directives, "relay_log"), "/var/log/mysql/b");
        assert_eq!(
            resolved(directives, "log_bin_index"),
            "/var/log/mysql/mysql-bin.index"
        );
        assert_eq!(
            resolved(directives, "relay_log_index"),
            "/var/log/mysql/relay-bin.index"
        );
    }

    #[test]
    fn truncated_dashed_names_resolve_to_their_variable() {
        assert_eq!(resolved("key-buffer=16M", "key_buffer_size"), "16777216");
    }

    #[test]
    fn valueless_and_bare_directives_resolve_like_mysqld() {
        assert_eq!(resolved("port", "port"), "3306");
        assert_eq!(resolved("port=", "port"), "3306");
        assert_eq!(resolved("skip-networking", "skip_networking"), "1");
    }

    #[test]
    fn bad_path_is_a_violation() {
        let tree = parse("[mysqld]\ndatadir=/var/lib/mysq\n");
        let err = validate_server_config(tree.root()).unwrap_err();
        assert_eq!(err.class, ValidationClass::InvalidPath);
        assert_eq!(err.directive, "datadir");
        assert!(err.message.contains("Can't read dir"));
    }

    #[test]
    fn dump_section_errors_are_latent_but_detected_by_the_tool_check() {
        let tree = parse("[mysqld]\nport=3306\n[mysqldump]\nqiuck\n");
        assert!(validate_server_config(tree.root()).is_ok(), "latent");
        let err = check_dump_config(tree.root()).unwrap_err();
        assert_eq!(err.message, "mysqldump: unknown option '--qiuck'");
    }

    #[test]
    fn fingerprint_ignores_comment_churn() {
        let a = parse("# hello\n[mysqld]\nport=3306\n");
        let b = parse("# goodbye\n[mysqld]\nport=3306\n");
        assert_eq!(
            fingerprint(a.root()).unwrap(),
            fingerprint(b.root()).unwrap()
        );
        let c = parse("[mysqld]\nport=3307\n");
        assert_ne!(
            fingerprint(a.root()).unwrap(),
            fingerprint(c.root()).unwrap()
        );
    }

    #[test]
    fn canonical_names_cover_every_resolution_case() {
        assert_eq!(canonical_names("port"), vec!["port".to_string()]);
        assert_eq!(
            canonical_names("key_buffer"),
            vec!["key_buffer_size".to_string()]
        );
        assert_eq!(
            canonical_names("bogus-name"),
            vec!["bogus_name".to_string()]
        );
        let ambiguous = canonical_names("max_c");
        assert!(ambiguous.contains(&"max_connections".to_string()));
        assert!(ambiguous.contains(&"max_connect_errors".to_string()));
    }
}
