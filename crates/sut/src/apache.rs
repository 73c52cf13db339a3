//! The Apache httpd 2.2 simulator.
//!
//! Apache is the paper's laxest parser (Table 1: only 38% of typos
//! caught at startup, 57% ignored). The simulator reproduces the
//! documented weaknesses (§5.2):
//!
//! * `AddType`/`DefaultType` accept **free-form strings** instead of
//!   validating RFC-2045 `type/subtype` syntax;
//! * `ServerAdmin` accepts anything, not just URLs/email addresses;
//! * `ServerName` accepts anything, not just DNS host names;
//! * typos in the `Listen` port keep the server *running* but
//!   unreachable — only the functional HTTP GET catches them (the 5%
//!   functional-detection row of Table 1).
//!
//! What Apache does validate, the simulator validates too: unknown
//! directive names are "Invalid command" startup errors, integer
//! directives reject non-numeric values, On/Off style enums reject
//! unknown keywords, `Order`/`Allow`/`Deny` check their argument
//! grammar, duplicate `Listen` ports abort with "Address already in
//! use", and a configuration without any `Listen` refuses to start.
//! Directive names are case-insensitive (Table 2) and cannot be
//! truncated.

use std::sync::Arc;

use conferr_analysis::apache::StartupModel;
use conferr_analysis::{Dialect, DialectModel, DirectiveSchema, APACHE_SCHEMA};
use conferr_formats::ApacheFormat;

use crate::minihttp::{HttpService, VirtualFs, VirtualHost};
use crate::{
    CacheStats, ConfigFileSpec, ConfigPayload, Deadline, FileText, ParseCache, StartOutcome,
    SystemUnderTest, TestOutcome,
};

/// The default `httpd.conf`, carrying 98 directives like the stock
/// Apache 2.2 configuration the paper used (§5.1).
const DEFAULT_HTTPD_CONF: &str = r#"# Apache httpd 2.2 configuration (httpd.conf)
ServerRoot /etc/httpd
PidFile /var/run/httpd.pid
Timeout 120
KeepAlive On
MaxKeepAliveRequests 100
KeepAliveTimeout 15
StartServers 8
MinSpareServers 5
MaxSpareServers 20
ServerLimit 256
MaxClients 256
MaxRequestsPerChild 4000
Listen 80
User apache
Group apache
ServerAdmin root@example.com
ServerName www.example.com
UseCanonicalName Off
DocumentRoot /var/www/html
DirectoryIndex index.html
AccessFileName .htaccess
TypesConfig /etc/mime.types
DefaultType text/plain
HostnameLookups Off
ErrorLog /var/log/httpd/error_log
LogLevel warn
LogFormat "%h %l %u %t \"%r\" %>s %b" common
LogFormat "%{Referer}i -> %U" referer
LogFormat "%{User-agent}i" agent
CustomLog /var/log/httpd/access_log common
ServerSignature On
ServerTokens OS
Alias /icons/ /var/www/icons/
ScriptAlias /cgi-bin/ /var/www/cgi-bin/
IndexOptions FancyIndexing VersionSort NameWidth=*
AddIconByEncoding (CMP,/icons/compressed.gif) x-compress x-gzip
AddIconByType (TXT,/icons/text.gif) text/*
AddIconByType (IMG,/icons/image2.gif) image/*
AddIconByType (SND,/icons/sound2.gif) audio/*
AddIcon /icons/binary.gif .bin .exe
AddIcon /icons/tar.gif .tar
AddIcon /icons/back.gif ..
DefaultIcon /icons/unknown.gif
ReadmeName README.html
HeaderName HEADER.html
IndexIgnore .??* *~ *# HEADER* README* RCS CVS *,v *,t
AddLanguage en .en
AddLanguage fr .fr
AddLanguage de .de
AddLanguage es .es
LanguagePriority en fr de es
ForceLanguagePriority Prefer Fallback
AddDefaultCharset UTF-8
AddType application/x-compress .Z
AddType application/x-gzip .gz .tgz
AddType image/png .png
AddType text/html .html .htm
AddType text/css .css
AddType application/x-javascript .js
AddHandler type-map var
AddOutputFilter INCLUDES .shtml
EnableMMAP On
EnableSendfile On
ExtendedStatus Off
BrowserMatch "Mozilla/2" nokeepalive
BrowserMatch "MSIE 4\.0b2;" nokeepalive downgrade-1.0 force-response-1.0
BrowserMatch "RealPlayer 4\.0" force-response-1.0
SetEnvIf Request_URI "^/favicon\.ico$" dontlog
ErrorDocument 404 /missing.html
FileETag INode MTime Size
ContentDigest Off
NameVirtualHost *:80

<Directory />
    Options FollowSymLinks
    AllowOverride None
</Directory>

<Directory /var/www/html>
    Options Indexes FollowSymLinks
    AllowOverride None
    Order allow,deny
    Allow from all
</Directory>

<Directory /var/www/icons>
    Options Indexes MultiViews
    AllowOverride None
    Order allow,deny
    Allow from all
</Directory>

<Directory /var/www/cgi-bin>
    AllowOverride None
    Options None
    Order allow,deny
    Allow from all
</Directory>

<Files ~ "^\.ht">
    Order allow,deny
    Deny from all
</Files>

<IfModule mod_userdir.c>
    UserDir disable
</IfModule>

<VirtualHost *:80>
    ServerName www.example.com
    DocumentRoot /var/www/html
    ServerAdmin webmaster@example.com
    ErrorLog /var/log/httpd/vhost_error_log
    CustomLog /var/log/httpd/vhost_access_log common
</VirtualHost>

<VirtualHost *:80>
    ServerName docs.example.com
    DocumentRoot /var/www/docs
    Alias /manual/ /var/www/docs/manual/
    DirectoryIndex index.html
</VirtualHost>
"#;

/// The administrator's smoke test fetches this URL (paper §5.1: "an
/// HTTP GET operation to download a page").
const PROBE_PORT: u16 = 80;
const PROBE_HOST: &str = "www.example.com";
const PROBE_PATH: &str = "/";

fn builtin_fs() -> VirtualFs {
    let mut fs = VirtualFs::new();
    fs.add_file(
        "/var/www/html/index.html",
        "<html><body>It works!</body></html>",
    );
    fs.add_file("/var/www/html/logo.png", "\u{89}PNG...");
    fs.add_file("/var/www/docs/index.html", "<html><body>Docs</body></html>");
    fs.add_file("/var/www/docs/manual/intro.html", "<html>Manual</html>");
    fs.add_file("/var/www/icons/unknown.gif", "GIF89a");
    fs.add_file("/var/www/cgi-bin/status", "#!/bin/sh");
    fs
}

#[derive(Debug)]
struct Running {
    service: Arc<HttpService>,
}

/// Deterministic result of parsing and validating one `httpd.conf`
/// text: the would-be HTTP service plus startup warnings, or the
/// startup diagnostic. This is what the parse cache memoizes.
type ApacheStartup = Result<(Arc<HttpService>, Vec<String>), String>;

/// The Apache httpd 2.2 simulator. See the module docs for its
/// validation (and deliberate non-validation) inventory.
#[derive(Debug, Default)]
pub struct ApacheSim {
    running: Option<Running>,
    cache: ParseCache,
}

impl ApacheSim {
    /// Creates a stopped simulator.
    pub fn new() -> Self {
        ApacheSim::default()
    }

    /// Shared access to the running HTTP service (for assertions).
    pub fn service(&self) -> Option<&HttpService> {
        self.running.as_ref().map(|r| r.service.as_ref())
    }

    /// The full startup path: parse, validate every directive, build
    /// the HTTP service. Pure in the configuration text. Validation
    /// and model extraction live in `conferr_analysis::apache` —
    /// shared verbatim with the static linter, whose check of the same
    /// parse the file may carry — and the service is assembled
    /// infallibly from the extracted [`StartupModel`].
    fn parse_and_validate(file: &FileText) -> ApacheStartup {
        let check = file
            .check_with(&ApacheFormat::new(), Dialect::ApacheHttpd)
            .map_err(|e| Dialect::ApacheHttpd.parse_failure_diagnostic(&e.to_string()))?;
        match &check.result {
            Ok(DialectModel::Apache(model)) => Ok((
                Arc::new(Self::service_from_model(model)),
                model.warnings.clone(),
            )),
            Ok(other) => unreachable!("an Apache check holds {other:?}"),
            Err(violation) => Err(violation.message.clone()),
        }
    }

    fn service_from_model(model: &StartupModel) -> HttpService {
        HttpService {
            fs: builtin_fs(),
            listen_ports: model.listen_ports.clone(),
            main_doc_root: model.main_doc_root.clone(),
            main_aliases: model.main_aliases.clone(),
            directory_index: model.directory_index.clone(),
            default_type: model.default_type.clone(),
            mime_types: model.mime_types.clone(),
            vhosts: model
                .vhosts
                .iter()
                .map(|v| VirtualHost {
                    server_name: v.server_name.clone(),
                    doc_root: v.doc_root.clone(),
                    aliases: v.aliases.clone(),
                    addr_pattern: v.addr_pattern.clone(),
                })
                .collect(),
        }
    }
}

impl SystemUnderTest for ApacheSim {
    fn name(&self) -> &str {
        "apache-sim"
    }

    fn config_files(&self) -> Vec<ConfigFileSpec> {
        vec![ConfigFileSpec {
            name: "httpd.conf".to_string(),
            format: "apache".to_string(),
            default_contents: DEFAULT_HTTPD_CONF.to_string(),
        }]
    }

    fn start(&mut self, configs: &ConfigPayload, _deadline: &Deadline) -> StartOutcome {
        self.running = None;
        let Some(file) = configs.get("httpd.conf") else {
            return StartOutcome::FailedToStart {
                diagnostic: "httpd: could not open document config file httpd.conf".to_string(),
            };
        };
        let startup = self
            .cache
            .get_or_parse("httpd.conf", file, Self::parse_and_validate);
        match startup.as_ref() {
            Ok((service, warnings)) => {
                self.running = Some(Running {
                    service: Arc::clone(service),
                });
                if warnings.is_empty() {
                    StartOutcome::Started
                } else {
                    StartOutcome::StartedWithWarnings {
                        warnings: warnings.clone(),
                    }
                }
            }
            Err(diagnostic) => StartOutcome::FailedToStart {
                diagnostic: diagnostic.clone(),
            },
        }
    }

    fn test_names(&self) -> Vec<String> {
        vec!["http-get".to_string()]
    }

    fn run_test(&mut self, test: &str, _deadline: &Deadline) -> TestOutcome {
        let Some(running) = self.running.as_ref() else {
            return TestOutcome::failed("server is not running");
        };
        match test {
            "http-get" => match running.service.get(PROBE_PORT, PROBE_HOST, PROBE_PATH) {
                None => TestOutcome::failed(format!(
                    "curl: (7) Failed to connect to {PROBE_HOST} port {PROBE_PORT}: \
                     Connection refused"
                )),
                Some(resp) if resp.status == 200 => TestOutcome::Passed,
                Some(resp) => {
                    TestOutcome::failed(format!("GET {PROBE_PATH} returned HTTP {}", resp.status))
                }
            },
            other => TestOutcome::failed(format!("unknown test {other:?}")),
        }
    }

    fn stop(&mut self) {
        self.running = None;
    }

    fn set_parse_caching(&mut self, enabled: bool) {
        self.cache.set_enabled(enabled);
    }

    fn parse_cache_stats(&self) -> Option<CacheStats> {
        Some(self.cache.stats())
    }

    fn schema(&self) -> Option<&'static DirectiveSchema> {
        Some(&APACHE_SCHEMA)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::default_configs;
    use conferr_formats::ConfigFormat;

    fn start_with(patch: impl Fn(&mut String)) -> (ApacheSim, StartOutcome) {
        let mut sut = ApacheSim::new();
        let mut configs = default_configs(&sut);
        patch(configs.get_mut("httpd.conf").unwrap());
        let outcome = sut.start(&ConfigPayload::from_texts(&configs), &Deadline::unlimited());
        (sut, outcome)
    }

    #[test]
    fn default_config_starts_and_serves() {
        let (mut sut, outcome) = start_with(|_| {});
        assert_eq!(outcome, StartOutcome::Started, "{outcome}");
        assert!(sut.run_test("http-get", &Deadline::unlimited()).passed());
    }

    #[test]
    fn default_config_has_98_directives() {
        let tree = ApacheFormat::new().parse(DEFAULT_HTTPD_CONF).unwrap();
        let count = tree.iter().filter(|(_, n)| n.kind() == "directive").count();
        assert_eq!(count, 98, "paper §5.1: Apache's default has 98 directives");
    }

    #[test]
    fn unknown_directive_is_invalid_command() {
        let (_, outcome) = start_with(|t| {
            *t = t.replace("KeepAlive On", "KeepAlvie On");
        });
        match outcome {
            StartOutcome::FailedToStart { diagnostic } => {
                assert!(diagnostic.contains("Invalid command"), "{diagnostic}");
            }
            other => panic!("{other}"),
        }
    }

    #[test]
    fn directive_names_are_case_insensitive() {
        let (_, outcome) = start_with(|t| {
            *t = t.replace("KeepAlive On", "keepalive on");
        });
        assert_eq!(outcome, StartOutcome::Started);
    }

    #[test]
    fn truncated_names_are_rejected() {
        let (_, outcome) = start_with(|t| {
            *t = t.replace("KeepAlive On", "KeepAliv On");
        });
        assert!(matches!(outcome, StartOutcome::FailedToStart { .. }));
    }

    #[test]
    fn flaw_addtype_accepts_freeform_strings() {
        // "texthtml" is not type/subtype but sails through (§5.2).
        let (_, outcome) = start_with(|t| {
            *t = t.replace(
                "AddType text/html .html .htm",
                "AddType texthtml .html .htm",
            );
        });
        assert_eq!(outcome, StartOutcome::Started);
    }

    #[test]
    fn flaw_serveradmin_and_servername_accept_anything() {
        let (_, outcome) = start_with(|t| {
            *t = t.replace("ServerAdmin root@example.com", "ServerAdmin rootexamplecom");
        });
        assert_eq!(outcome, StartOutcome::Started);
        let (_, outcome) = start_with(|t| {
            *t = t.replace(
                "ServerName www.example.com\n",
                "ServerName not a hostname!!\n",
            );
        });
        assert_eq!(outcome, StartOutcome::Started);
    }

    #[test]
    fn integer_directives_reject_typos() {
        let (_, outcome) = start_with(|t| {
            *t = t.replace("Timeout 120", "Timeout 12o");
        });
        assert!(matches!(outcome, StartOutcome::FailedToStart { .. }));
    }

    #[test]
    fn keyword_directives_reject_typos() {
        let (_, outcome) = start_with(|t| {
            *t = t.replace("LogLevel warn", "LogLevel wran");
        });
        assert!(matches!(outcome, StartOutcome::FailedToStart { .. }));
    }

    #[test]
    fn listen_port_typo_survives_startup_but_fails_http_get() {
        // 80 → 8o is caught (non-numeric), but 80 → 81 is a valid
        // port: the server starts and only the GET notices.
        let (_, outcome) = start_with(|t| {
            *t = t.replace("Listen 80", "Listen 8o");
        });
        assert!(matches!(outcome, StartOutcome::FailedToStart { .. }));

        let (mut sut, outcome) = start_with(|t| {
            *t = t.replace("Listen 80", "Listen 81");
        });
        assert_eq!(outcome, StartOutcome::Started);
        let result = sut.run_test("http-get", &Deadline::unlimited());
        match result {
            TestOutcome::Failed { diagnostic } => {
                assert!(diagnostic.contains("Connection refused"), "{diagnostic}");
            }
            TestOutcome::Passed => panic!("GET must fail on the wrong port"),
        }
    }

    #[test]
    fn duplicate_listen_is_address_in_use() {
        let (_, outcome) = start_with(|t| {
            *t = t.replace("Listen 80", "Listen 80\nListen 80");
        });
        match outcome {
            StartOutcome::FailedToStart { diagnostic } => {
                assert!(
                    diagnostic.contains("Address already in use"),
                    "{diagnostic}"
                );
            }
            other => panic!("{other}"),
        }
    }

    #[test]
    fn deleting_listen_refuses_to_start() {
        let (_, outcome) = start_with(|t| {
            *t = t.replace("Listen 80\n", "");
        });
        match outcome {
            StartOutcome::FailedToStart { diagnostic } => {
                assert!(diagnostic.contains("no listening sockets"), "{diagnostic}");
            }
            other => panic!("{other}"),
        }
    }

    #[test]
    fn docroot_typo_warns_and_fails_get() {
        let (sut, outcome) = start_with(|t| {
            *t = t.replace(
                "DocumentRoot /var/www/html\nDirectoryIndex",
                "DocumentRoot /var/www/htm\nDirectoryIndex",
            );
        });
        match &outcome {
            StartOutcome::StartedWithWarnings { warnings } => {
                assert!(warnings[0].contains("does not exist"), "{warnings:?}");
            }
            other => panic!("{other}"),
        }
        // The probe host still matches the first VirtualHost (whose
        // own DocumentRoot is intact), so use a vhost-free config to
        // see the 404.
        let _ = sut;
        let (mut sut, _) = start_with(|t| {
            let cut = t.find("<VirtualHost").unwrap();
            t.truncate(cut);
            *t = t.replace(
                "DocumentRoot /var/www/html\nDirectoryIndex",
                "DocumentRoot /var/www/htm\nDirectoryIndex",
            );
        });
        let result = sut.run_test("http-get", &Deadline::unlimited());
        match result {
            TestOutcome::Failed { diagnostic } => {
                assert!(diagnostic.contains("404"), "{diagnostic}");
            }
            TestOutcome::Passed => panic!("GET must 404 under the missing docroot"),
        }
    }

    #[test]
    fn vhost_without_servername_warns() {
        let (_, outcome) = start_with(|t| {
            *t = t.replace(
                "    ServerName www.example.com\n    DocumentRoot /var/www/html\n",
                "    DocumentRoot /var/www/html\n",
            );
        });
        match outcome {
            StartOutcome::StartedWithWarnings { warnings } => {
                assert!(warnings.iter().any(|w| w.contains("no ServerName")));
            }
            other => panic!("{other}"),
        }
    }

    #[test]
    fn unknown_section_is_invalid_command() {
        let (_, outcome) = start_with(|t| {
            *t = t
                .replace("<IfModule mod_userdir.c>", "<IfModuel mod_userdir.c>")
                .replace("</IfModule>", "</IfModuel>");
        });
        assert!(matches!(outcome, StartOutcome::FailedToStart { .. }));
    }

    #[test]
    fn order_and_allow_grammar_is_checked() {
        let (_, outcome) = start_with(|t| {
            *t = t.replace("Order allow,deny", "Order allowdeny");
        });
        assert!(matches!(outcome, StartOutcome::FailedToStart { .. }));
        let (_, outcome) = start_with(|t| {
            *t = t.replace("Allow from all", "Allow form all");
        });
        assert!(matches!(outcome, StartOutcome::FailedToStart { .. }));
    }

    #[test]
    fn vhost_alias_routes_requests() {
        let (sut, outcome) = start_with(|_| {});
        assert!(outcome.is_running());
        let svc = sut.service().unwrap();
        let resp = svc
            .get(80, "docs.example.com", "/manual/intro.html")
            .unwrap();
        assert_eq!(resp.status, 200);
        assert!(resp.body.contains("Manual"));
    }

    #[test]
    fn mime_map_is_built_from_addtype() {
        let (sut, _) = start_with(|_| {});
        let svc = sut.service().unwrap();
        let resp = svc.get(80, "www.example.com", "/logo.png").unwrap();
        assert_eq!(resp.content_type, "image/png");
    }

    #[test]
    fn syntax_error_fails_startup() {
        let (_, outcome) = start_with(|t| {
            *t = t.replace("</VirtualHost>", "</VirtualHos>");
        });
        assert!(matches!(outcome, StartOutcome::FailedToStart { .. }));
    }
}
