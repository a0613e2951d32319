//! Integration tests for the `dogmatix` command-line binary.

use std::process::Command;

fn write_sample() -> tempdir::TempPaths {
    tempdir::setup()
}

/// Minimal self-contained temp-file helpers (no tempfile crate).
mod tempdir {
    use std::path::PathBuf;

    pub struct TempPaths {
        pub dir: PathBuf,
        pub input: PathBuf,
        pub mapping: PathBuf,
        pub output: PathBuf,
    }

    pub fn setup() -> TempPaths {
        let dir = std::env::temp_dir().join(format!(
            "dogmatix-cli-test-{}-{}",
            std::process::id(),
            std::thread::current()
                .name()
                .unwrap_or("t")
                .replace("::", "-"),
        ));
        std::fs::create_dir_all(&dir).expect("create temp dir");
        let input = dir.join("movies.xml");
        std::fs::write(
            &input,
            "<moviedoc>\
               <movie><title>The Matrix</title><year>1999</year></movie>\
               <movie><title>The Matrrix</title><year>1999</year></movie>\
               <movie><title>Signs</title><year>2002</year></movie>\
             </moviedoc>",
        )
        .expect("write input");
        let mapping = dir.join("mapping.txt");
        std::fs::write(&mapping, "MOVIE: $doc/moviedoc/movie\n").expect("write mapping");
        TempPaths {
            output: dir.join("dups.xml"),
            dir,
            input,
            mapping,
        }
    }
}

fn dogmatix() -> Command {
    Command::new(env!("CARGO_BIN_EXE_dogmatix"))
}

#[test]
fn detects_duplicates_with_mapping_file() {
    let paths = write_sample();
    let out = dogmatix()
        .arg(&paths.input)
        .args(["--type", "MOVIE", "--no-filter"])
        .args(["--mapping", paths.mapping.to_str().unwrap()])
        .args(["--output", paths.output.to_str().unwrap()])
        .output()
        .expect("binary runs");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let written = std::fs::read_to_string(&paths.output).expect("output written");
    assert!(written.contains("dupcluster"), "{written}");
    assert!(written.contains("/moviedoc[1]/movie[1]"));
    assert!(written.contains("/moviedoc[1]/movie[2]"));
    assert!(!written.contains("movie[3]"), "Signs is not a duplicate");
    let _ = std::fs::remove_dir_all(&paths.dir);
}

#[test]
fn suggests_candidates_without_mapping() {
    let paths = write_sample();
    let out = dogmatix()
        .arg(&paths.input)
        .args(["--type", "MOVIE", "--no-filter"])
        .output()
        .expect("binary runs");
    assert!(out.status.success());
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("suggested candidate path /moviedoc/movie"),
        "{stderr}"
    );
    let _ = std::fs::remove_dir_all(&paths.dir);
}

#[test]
fn fuse_writes_deduplicated_document() {
    let paths = write_sample();
    let out = dogmatix()
        .arg(&paths.input)
        .args(["--type", "MOVIE", "--no-filter", "--fuse"])
        .args(["--output", paths.output.to_str().unwrap()])
        .output()
        .expect("binary runs");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let fused_path = paths.dir.join("movies.fused.xml");
    let fused = std::fs::read_to_string(&fused_path).expect("fused written");
    assert!(fused.contains("fused-from=\"2\""), "{fused}");
    // 2 movies remain: the fused pair + Signs ("<movie>" and
    // "<movie fused-from…>"; "<moviedoc>" must not be counted).
    let count = fused.matches("<movie>").count() + fused.matches("<movie ").count();
    assert_eq!(count, 2, "{fused}");
    let _ = std::fs::remove_dir_all(&paths.dir);
}

#[test]
fn rejects_missing_arguments() {
    let out = dogmatix().output().expect("binary runs");
    assert!(!out.status.success());
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("usage:"), "{stderr}");
}

#[test]
fn rejects_unknown_type() {
    let paths = write_sample();
    let out = dogmatix()
        .arg(&paths.input)
        .args(["--type", "NOPE"])
        .args(["--mapping", paths.mapping.to_str().unwrap()])
        .output()
        .expect("binary runs");
    assert!(!out.status.success());
    let _ = std::fs::remove_dir_all(&paths.dir);
}

#[test]
fn threads_flag_is_accepted() {
    let paths = write_sample();
    let out = dogmatix()
        .arg(&paths.input)
        .args(["--type", "MOVIE", "--no-filter", "--threads", "2"])
        .args(["--mapping", paths.mapping.to_str().unwrap()])
        .args(["--output", paths.output.to_str().unwrap()])
        .output()
        .expect("binary runs");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let written = std::fs::read_to_string(&paths.output).expect("output written");
    assert!(written.contains("dupcluster"), "{written}");
    let _ = std::fs::remove_dir_all(&paths.dir);
}

#[test]
fn threads_flag_rejects_non_numbers() {
    let paths = write_sample();
    let out = dogmatix()
        .arg(&paths.input)
        .args(["--type", "MOVIE", "--threads", "many"])
        .output()
        .expect("binary runs");
    assert!(!out.status.success());
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("--threads must be a non-negative integer"),
        "{stderr}"
    );
    let _ = std::fs::remove_dir_all(&paths.dir);
}

#[test]
fn blocking_and_shards_flags_detect_the_same_duplicates() {
    for blocking in ["qgram", "lsh"] {
        let paths = write_sample();
        let out = dogmatix()
            .arg(&paths.input)
            .args(["--type", "MOVIE", "--blocking", blocking])
            .args(["--threads", "2"])
            .args(["--mapping", paths.mapping.to_str().unwrap()])
            .args(["--output", paths.output.to_str().unwrap()])
            .output()
            .expect("binary runs");
        assert!(
            out.status.success(),
            "--blocking {blocking}: {}",
            String::from_utf8_lossy(&out.stderr)
        );
        let written = std::fs::read_to_string(&paths.output).expect("output written");
        assert!(written.contains("/moviedoc[1]/movie[1]"), "{written}");
        assert!(written.contains("/moviedoc[1]/movie[2]"), "{written}");
        assert!(!written.contains("movie[3]"), "{written}");
        let _ = std::fs::remove_dir_all(&paths.dir);
    }
}

#[test]
fn blocking_flag_rejects_unknown_strategies() {
    let paths = write_sample();
    let out = dogmatix()
        .arg(&paths.input)
        .args(["--type", "MOVIE", "--blocking", "sorted-hat"])
        .output()
        .expect("binary runs");
    assert!(!out.status.success());
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("--blocking must be 'qgram' or 'lsh'"),
        "{stderr}"
    );
    let _ = std::fs::remove_dir_all(&paths.dir);
}

#[test]
fn unknown_flag_is_named_and_corrected() {
    let paths = write_sample();
    let out = dogmatix()
        .arg(&paths.input)
        .args(["--type", "MOVIE", "--thread", "2"])
        .output()
        .expect("binary runs");
    assert!(!out.status.success());
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("unknown flag '--thread'"), "{stderr}");
    assert!(stderr.contains("did you mean '--threads'?"), "{stderr}");
    // Retired flags: old scripts fail loudly and name the flag.
    for (name, value) in [("shards", "4"), ("edit-kernel", "scalar")] {
        let flag = format!("--{name}");
        let out = dogmatix()
            .arg(&paths.input)
            .args(["--type", "MOVIE", &flag, value])
            .output()
            .expect("binary runs");
        assert_eq!(out.status.code(), Some(1), "{flag}");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(
            stderr.contains(&format!("unknown flag '{flag}'")),
            "{stderr}"
        );
    }
    let _ = std::fs::remove_dir_all(&paths.dir);
}

#[test]
fn stray_positional_argument_is_reported() {
    let paths = write_sample();
    let out = dogmatix()
        .arg(&paths.input)
        .args(["--type", "MOVIE"])
        .arg("second-file.xml")
        .output()
        .expect("binary runs");
    assert!(!out.status.success());
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("unexpected positional argument 'second-file.xml'"),
        "{stderr}"
    );
    let _ = std::fs::remove_dir_all(&paths.dir);
}

#[test]
fn deltas_script_replays_incrementally() {
    let paths = write_sample();
    let script = paths.dir.join("deltas.txt");
    std::fs::write(
        &script,
        "# fix the typo, then watch a new duplicate of Signs arrive\n\
         update 1 title 0 The Matrix\n\
         detect\n\
         insert /moviedoc <movie><title>Signs</title><year>2002</year></movie>\n\
         remove-element 0 title 0\n\
         insert-under 0 . 0 <title>The Matrix</title>\n",
    )
    .expect("write script");
    let out = dogmatix()
        .arg(&paths.input)
        .args(["--type", "MOVIE", "--no-filter"])
        .args(["--mapping", paths.mapping.to_str().unwrap()])
        .args(["--deltas", script.to_str().unwrap()])
        .args(["--output", paths.output.to_str().unwrap()])
        .output()
        .expect("binary runs");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("initial: candidates: 3"), "{stderr}");
    assert!(stderr.contains("detect #1 (1 deltas)"), "{stderr}");
    assert!(
        stderr.contains("detect #2 (3 deltas)"),
        "trailing deltas flush implicitly: {stderr}"
    );
    assert!(stderr.contains("replay totals: 4 deltas"), "{stderr}");
    // Final state: 4 movies, two duplicate pairs (Matrix pair + Signs pair).
    let written = std::fs::read_to_string(&paths.output).expect("output written");
    assert_eq!(written.matches("<dupcluster").count(), 2, "{written}");
    assert!(written.contains("movie[4]"), "{written}");
    let _ = std::fs::remove_dir_all(&paths.dir);
}

#[test]
fn bad_delta_script_reports_the_line() {
    let paths = write_sample();
    let script = paths.dir.join("deltas.txt");
    std::fs::write(&script, "frobnicate 1 2 3\n").expect("write script");
    let out = dogmatix()
        .arg(&paths.input)
        .args(["--type", "MOVIE", "--no-filter"])
        .args(["--mapping", paths.mapping.to_str().unwrap()])
        .args(["--deltas", script.to_str().unwrap()])
        .output()
        .expect("binary runs");
    assert!(!out.status.success());
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("unknown delta command 'frobnicate'"),
        "{stderr}"
    );
    let _ = std::fs::remove_dir_all(&paths.dir);
}

#[test]
fn index_save_then_load_produces_identical_output() {
    let paths = write_sample();
    let index = paths.dir.join("movies.index");
    let save_out = dogmatix()
        .arg(&paths.input)
        .args(["--type", "MOVIE"])
        .args(["--mapping", paths.mapping.to_str().unwrap()])
        .args(["--index-save", index.to_str().unwrap()])
        .args(["--output", paths.output.to_str().unwrap()])
        .output()
        .expect("binary runs");
    assert!(
        save_out.status.success(),
        "{}",
        String::from_utf8_lossy(&save_out.stderr)
    );
    assert!(index.exists(), "snapshot file written");
    let cold = std::fs::read_to_string(&paths.output).expect("output written");

    let warm_path = paths.dir.join("warm.xml");
    let load_out = dogmatix()
        .arg(&paths.input)
        .args(["--type", "MOVIE"])
        .args(["--mapping", paths.mapping.to_str().unwrap()])
        .args(["--index-load", index.to_str().unwrap()])
        .args(["--output", warm_path.to_str().unwrap()])
        .output()
        .expect("binary runs");
    assert!(
        load_out.status.success(),
        "{}",
        String::from_utf8_lossy(&load_out.stderr)
    );
    let warm = std::fs::read_to_string(&warm_path).expect("warm output written");
    assert_eq!(cold, warm, "snapshot warm start must be bit-identical");
    let stderr = String::from_utf8_lossy(&load_out.stderr);
    assert!(stderr.contains("warm-starting"), "{stderr}");
    // Without --mem-budget the load runs under the 64 MiB default.
    assert!(stderr.contains("67108864 B pool budget"), "{stderr}");
    let _ = std::fs::remove_dir_all(&paths.dir);
}

#[test]
fn index_load_rejects_corrupted_snapshots_cleanly() {
    let paths = write_sample();
    let index = paths.dir.join("garbage.index");
    std::fs::write(&index, b"this is not a snapshot at all").unwrap();
    let out = dogmatix()
        .arg(&paths.input)
        .args(["--type", "MOVIE"])
        .args(["--mapping", paths.mapping.to_str().unwrap()])
        .args(["--index-load", index.to_str().unwrap()])
        .output()
        .expect("binary runs");
    assert!(!out.status.success(), "corrupted snapshot must fail");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("term-index snapshot error"), "{stderr}");
    let _ = std::fs::remove_dir_all(&paths.dir);
}

#[test]
fn index_flags_are_mutually_exclusive_and_batch_only() {
    let paths = write_sample();
    let out = dogmatix()
        .arg(&paths.input)
        .args(["--type", "MOVIE"])
        .args(["--index-save", "a.index", "--index-load", "b.index"])
        .output()
        .expect("binary runs");
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("mutually exclusive"));

    let deltas = paths.dir.join("script.txt");
    std::fs::write(&deltas, "detect\n").unwrap();
    let out = dogmatix()
        .arg(&paths.input)
        .args(["--type", "MOVIE"])
        .args(["--index-save", "a.index"])
        .args(["--deltas", deltas.to_str().unwrap()])
        .output()
        .expect("binary runs");
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("batch runs"));
    let _ = std::fs::remove_dir_all(&paths.dir);
}

#[test]
fn emit_queries_prints_candidate_and_description_queries() {
    let paths = write_sample();
    let out = dogmatix()
        .arg(&paths.input)
        .args(["--type", "MOVIE", "--no-filter", "--emit-queries"])
        .args(["--mapping", paths.mapping.to_str().unwrap()])
        .output()
        .expect("binary runs");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("Q_C:"), "{stdout}");
    assert!(stdout.contains("$doc/moviedoc/movie"), "{stdout}");
    assert!(stdout.contains("Q_D /moviedoc/movie:"), "{stdout}");
    assert!(stdout.contains("<od>"), "{stdout}");
    let _ = std::fs::remove_dir_all(&paths.dir);
}

#[test]
fn probe_answers_point_queries_without_detection_output() {
    let paths = write_sample();
    let out = dogmatix()
        .arg(&paths.input)
        .args(["--type", "MOVIE", "--no-filter"])
        .args(["--mapping", paths.mapping.to_str().unwrap()])
        .args([
            "--probe",
            "<movie><title>The Matrix</title><year>1999</year></movie>",
        ])
        .args(["--probe-k", "2"])
        .output()
        .expect("binary runs");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    // Both Matrix variants match the probe record; Signs does not.
    let lines: Vec<&str> = stdout.lines().collect();
    assert_eq!(lines.len(), 2, "{stdout}");
    assert!(lines[0].starts_with("0\t"), "{stdout}");
    assert!(lines[1].starts_with("1\t"), "{stdout}");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("examined"), "{stderr}");
    let _ = std::fs::remove_dir_all(&paths.dir);
}

#[test]
fn probe_conflicts_with_deltas() {
    let paths = write_sample();
    let deltas = paths.dir.join("script.txt");
    std::fs::write(&deltas, "detect\n").unwrap();
    let out = dogmatix()
        .arg(&paths.input)
        .args(["--type", "MOVIE"])
        .args(["--probe", "<movie><title>X</title></movie>"])
        .args(["--deltas", deltas.to_str().unwrap()])
        .output()
        .expect("binary runs");
    assert!(!out.status.success());
    let _ = std::fs::remove_dir_all(&paths.dir);
}

#[test]
fn index_paged_save_then_load_produces_identical_output() {
    let paths = write_sample();
    let index = paths.dir.join("movies.dxts");
    let save_out = dogmatix()
        .arg(&paths.input)
        .args(["--type", "MOVIE"])
        .args(["--mapping", paths.mapping.to_str().unwrap()])
        .args(["--index-save", index.to_str().unwrap()])
        .args(["--output", paths.output.to_str().unwrap()])
        .output()
        .expect("binary runs");
    assert!(
        save_out.status.success(),
        "{}",
        String::from_utf8_lossy(&save_out.stderr)
    );
    let image = std::fs::read(&index).expect("snapshot written");
    assert_eq!(&image[0..4], b"DXTS", "magic");
    assert_eq!(
        u32::from_le_bytes([image[4], image[5], image[6], image[7]]),
        2,
        "--index-save writes the paged format, version 2"
    );
    let cold = std::fs::read_to_string(&paths.output).expect("output written");

    // Warm start through the buffer pool under a deliberately small
    // budget (two 4 KiB frames) — must still be bit-identical.
    let warm_path = paths.dir.join("warm-paged.xml");
    let load_out = dogmatix()
        .arg(&paths.input)
        .args(["--type", "MOVIE"])
        .args(["--mapping", paths.mapping.to_str().unwrap()])
        .args(["--index-load", index.to_str().unwrap()])
        .args(["--mem-budget", "8192"])
        .args(["--output", warm_path.to_str().unwrap()])
        .output()
        .expect("binary runs");
    assert!(
        load_out.status.success(),
        "{}",
        String::from_utf8_lossy(&load_out.stderr)
    );
    assert!(String::from_utf8_lossy(&load_out.stderr).contains("8192 B pool budget"));
    let warm = std::fs::read_to_string(&warm_path).expect("warm output written");
    assert_eq!(cold, warm, "budgeted warm start must be bit-identical");

    let _ = std::fs::remove_dir_all(&paths.dir);
}

#[test]
fn paged_flags_are_validated() {
    let paths = write_sample();
    // --mem-budget only bounds a load's buffer pool.
    for flags in [
        &["--index-save", "a.index", "--mem-budget", "8192"][..],
        &["--mem-budget", "8192"][..],
    ] {
        let out = dogmatix()
            .arg(&paths.input)
            .args(["--type", "MOVIE"])
            .args(flags)
            .output()
            .expect("binary runs");
        assert!(!out.status.success());
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(
            stderr.contains("--mem-budget only applies to --index-load"),
            "{stderr}"
        );
    }

    // Non-numeric budgets are named, not panicked over.
    let out = dogmatix()
        .arg(&paths.input)
        .args(["--type", "MOVIE"])
        .args(["--index-load", "a.index"])
        .args(["--mem-budget", "lots"])
        .output()
        .expect("binary runs");
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("--mem-budget must be a byte count"));
    let _ = std::fs::remove_dir_all(&paths.dir);
}
