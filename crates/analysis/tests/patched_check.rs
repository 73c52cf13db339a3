//! The patched Apache check against the whole one.
//!
//! `FaultLinter::judge` derives the check of a known parse (the
//! baseline tree with one `SetText`, `SetAttr` or `Delete` applied)
//! from the baseline's model: it validates only the written node and
//! replays `startup_model` only when that model reads the old or the
//! new node (`apache::startup_reads`). These tests run over the
//! simulator's default `httpd.conf` and over a fixture with a
//! `<VirtualHost>` without `ServerName`, a main `DocumentRoot` that
//! does not exist, non-default `DirectoryIndex` and `DefaultType`
//! values, and `Alias`, `ScriptAlias` and `AddType` lines inside and
//! outside a virtual host. Over every node deletion and every
//! directive-name, directive-value and section-name typo, the patch is
//! taken and equals `DialectCheck::run` on the edited tree; and every
//! deletion, rename or rewrite of a node the model does not read
//! leaves `startup_model` as it was. Dropping any one name from the
//! read-set breaks both.

use std::sync::Arc;

use conferr_analysis::apache::{startup_model, startup_reads, StartupModel};
use conferr_analysis::{Dialect, DialectCheck, DialectModel, FaultLinter, APACHE_SCHEMA};
use conferr_formats::{ApacheFormat, ConfigFormat};
use conferr_keyboard::Keyboard;
use conferr_model::{
    ConfigSet, ErrorClass, ErrorGenerator, FaultScenario, GeneratedFault, TreeEdit, TypoKind,
};
use conferr_plugins::{TokenClass, TypoPlugin};
use conferr_sut::{ApacheSim, SystemUnderTest};
use conferr_tree::{ConfTree, TreePath};

const FILE: &str = "httpd.conf";

/// Reads every name of the read-set at least once with a value a
/// deletion or a typo changes.
const FIXTURE: &str = "\
# A server whose model every read-set name moves.
Listen 80
Listen 8080
ServerName www.example.com
DocumentRoot /var/www/missing
DirectoryIndex home.html
DefaultType application/octet-stream
AddType text/html .html .htm
AddType image/png .png
Alias /icons/ /var/www/icons/
ScriptAlias /cgi-bin/ /var/www/cgi-bin/
Timeout 120

<VirtualHost *:80>
    DocumentRoot /var/www/docs
    Alias /manual/ /var/www/docs/manual/
    ScriptAlias /scripts/ /var/www/cgi-bin/
    ErrorLog /var/log/httpd/vhost_error_log
</VirtualHost>

<VirtualHost *:8080>
    ServerName docs.example.com
    DocumentRoot /var/www/html
</VirtualHost>

<Directory /var/www/html>
    Order allow,deny
    Allow from all
</Directory>
";

/// The default `httpd.conf` and the fixture, each parsed as a baseline
/// that serializes back to its text.
fn baselines() -> Vec<(&'static str, ConfigSet)> {
    let default = ApacheSim::new()
        .config_files()
        .into_iter()
        .find(|spec| spec.name == FILE)
        .expect("the simulator reads httpd.conf")
        .default_contents;
    [("default", default), ("fixture", FIXTURE.to_string())]
        .into_iter()
        .map(|(name, text)| {
            let format = ApacheFormat::new();
            let tree = format.parse(&text).expect("parses");
            assert_eq!(format.serialize(&tree).unwrap(), text, "{name} round-trips");
            let mut set = ConfigSet::new();
            set.insert(FILE, tree);
            (name, set)
        })
        .collect()
}

/// Every node deletion and every directive-name, directive-value and
/// section-name typo of `baseline`.
fn single_edits(baseline: &ConfigSet) -> Vec<TreeEdit> {
    let tree = baseline.get(FILE).unwrap();
    let mut edits: Vec<TreeEdit> = tree
        .iter()
        .skip(1)
        .map(|(path, _)| TreeEdit::Delete {
            file: FILE.into(),
            path,
        })
        .collect();
    for class in [
        TokenClass::DirectiveNames,
        TokenClass::DirectiveValues,
        TokenClass::SectionNames,
    ] {
        let typos = TypoPlugin::new(Keyboard::qwerty_us(), class)
            .generate(baseline)
            .expect("typos");
        for fault in typos {
            if let GeneratedFault::Scenario(scenario) = fault {
                let [edit] = <[TreeEdit; 1]>::try_from(scenario.edits).expect("one edit");
                edits.push(edit);
            }
        }
    }
    edits
}

fn apply(baseline: &ConfigSet, edit: &TreeEdit) -> ConfTree {
    let scenario = FaultScenario {
        id: String::new(),
        description: String::new(),
        class: ErrorClass::Typo(TypoKind::Substitution),
        edits: vec![edit.clone()],
    };
    let mutated = scenario.apply(baseline).expect("applies");
    mutated.get(FILE).unwrap().clone()
}

#[test]
fn the_patched_check_of_every_single_edit_is_the_whole_check() {
    for (name, baseline) in baselines() {
        let before = baseline.get(FILE).unwrap();
        let base = DialectCheck::run(Dialect::ApacheHttpd, before.root()).unwrap();
        let base_model = base.result.as_ref().expect("the baseline starts");
        let linter = FaultLinter::with_round_trips(&APACHE_SCHEMA, baseline.clone(), |_| true)
            .expect("linter");
        let (mut edits, mut reread, mut failed) = (0, 0, 0);
        // The judge's model of every edit that shares the baseline's:
        // one allocation, which only the patched path can hand out.
        let mut shared: Option<Arc<StartupModel>> = None;
        for edit in single_edits(&baseline) {
            let after = apply(&baseline, &edit);
            let whole = DialectCheck::run(Dialect::ApacheHttpd, after.root()).unwrap();
            let patched = base_model
                .patched(before, &after, &edit)
                .unwrap_or_else(|| panic!("{name}: {edit:?} took no patch"));
            assert_eq!(patched, whole.result, "{name}: {edit:?}");
            let (_, judged) =
                linter.judge(std::slice::from_ref(&edit), true, true, Some(Ok(&after)));
            assert_eq!(judged.as_ref(), Some(&whole), "{name}: judged {edit:?}");
            edits += 1;
            match &patched {
                Ok(DialectModel::Apache(model)) => {
                    let DialectModel::Apache(base) = base_model else {
                        unreachable!("an Apache check");
                    };
                    if Arc::ptr_eq(model, base) {
                        let Some(Ok(DialectModel::Apache(judged))) =
                            judged.map(|check| check.result)
                        else {
                            unreachable!("checked equal above");
                        };
                        let shared = shared.get_or_insert_with(|| Arc::clone(&judged));
                        assert!(
                            Arc::ptr_eq(shared, &judged),
                            "{name}: judged {edit:?} whole"
                        );
                    } else {
                        reread += 1;
                    }
                }
                Ok(other) => panic!("{name}: an Apache patch made {other:?}"),
                Err(_) => failed += 1,
            }
        }
        // Both kinds of patch must be exercised: the shared model and
        // the replayed one, besides the failures.
        assert!(edits > 200, "{name}: {edits} edits");
        assert!(
            reread > 10 && edits - reread - failed > 10,
            "{name}: {reread} of {edits} replayed"
        );
        assert!(failed > 10, "{name}: {failed} of {edits} failed");
    }
}

#[test]
fn startup_model_reads_nothing_outside_its_read_set() {
    for (name, baseline) in baselines() {
        let before = baseline.get(FILE).unwrap();
        let model = startup_model(before.root()).expect("the baseline starts");
        let mut outside = 0;
        for (path, node) in before.iter().skip(1) {
            if startup_reads(before.root(), &path, node) {
                continue;
            }
            outside += 1;
            let renamed = format!("{}x", node.attr("name").unwrap_or(""));
            let edits = [
                TreeEdit::Delete {
                    file: FILE.into(),
                    path: path.clone(),
                },
                TreeEdit::SetAttr {
                    file: FILE.into(),
                    path: path.clone(),
                    key: "name".into(),
                    value: renamed,
                },
                TreeEdit::SetText {
                    file: FILE.into(),
                    path: path.clone(),
                    text: Some("rewritten".into()),
                },
            ];
            for edit in edits {
                let after = apply(&baseline, &edit);
                if let TreeEdit::SetAttr { .. } = edit {
                    let node = after.node_at(&path).unwrap();
                    assert!(
                        !startup_reads(after.root(), &path, node),
                        "{name}: {edit:?}"
                    );
                }
                assert_eq!(
                    startup_model(after.root()).as_ref(),
                    Ok(&model),
                    "{name}: {edit:?} moved the model"
                );
            }
        }
        assert!(outside > 5, "{name}: {outside} nodes outside the read-set");
    }
}

#[test]
fn the_read_set_follows_the_tree_shape() {
    let text = "Listen 80\n<VirtualHost *:80>\n  ServerName a\n  Listen 81\n  \
                <Directory />\n    DocumentRoot /x\n  </Directory>\n</VirtualHost>\n\
                <Directory />\n  ServerName b\n</Directory>\n";
    let tree = ApacheFormat::new().parse(text).unwrap();
    let reads = |indices: &[usize]| {
        let path = indices
            .iter()
            .fold(TreePath::root(), |path, &i| path.child(i));
        startup_reads(tree.root(), &path, tree.node_at(&path).unwrap())
    };
    assert!(reads(&[0]), "a top-level Listen");
    assert!(reads(&[1]), "a top-level VirtualHost");
    assert!(reads(&[1, 0]), "a ServerName directly inside one");
    assert!(!reads(&[1, 1]), "a Listen inside a VirtualHost");
    assert!(!reads(&[1, 2]), "a section inside a VirtualHost");
    assert!(!reads(&[1, 2, 0]), "anything deeper");
    assert!(!reads(&[2]), "another section");
    assert!(!reads(&[2, 0]), "a ServerName outside a VirtualHost");
}
