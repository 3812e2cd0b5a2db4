//! Every package opts into the lints of the root `[workspace.lints]`
//! table. A manifest without `[lints] workspace = true` compiles and lints
//! clean while ignoring every lint the workspace denies, so nothing but
//! this test notices a package that forgot it.

use std::fs;
use std::path::Path;

/// Whether `manifest` holds a `[lints]` table with `workspace = true`.
fn opts_into_workspace_lints(manifest: &str) -> bool {
    let mut in_lints = false;
    for line in manifest.lines().map(str::trim) {
        if line.starts_with('[') {
            in_lints = line == "[lints]";
        } else if in_lints {
            let compact: String = line.split_whitespace().collect();
            if compact == "workspace=true" {
                return true;
            }
        }
    }
    false
}

#[test]
fn every_manifest_opts_into_the_workspace_lints() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let mut manifests = vec![root.join("Cargo.toml")];
    for entry in fs::read_dir(root.join("crates")).expect("crates/ is readable") {
        let manifest = entry.expect("crates/ entry").path().join("Cargo.toml");
        if manifest.is_file() {
            manifests.push(manifest);
        }
    }
    assert!(manifests.len() > 1, "no member crate found under crates/");
    for manifest in manifests {
        let text = fs::read_to_string(&manifest).expect("manifest is readable");
        assert!(
            opts_into_workspace_lints(&text),
            "{} has no `[lints]` table with `workspace = true`",
            manifest.display()
        );
    }
}
