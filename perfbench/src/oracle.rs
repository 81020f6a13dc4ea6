//! Oracle checks. Each check is a pure function of the outputs it
//! compares, so a test can hand it a perturbed output and watch it fail;
//! [`Checks`] counts attempts and collects failures for the run result.

use brick_dsl::DenseGrid;
use serde::Serialize;

/// Attempted checks and the failures among them.
#[derive(Debug, Clone, Default)]
pub struct Checks {
    /// Checks run.
    pub attempted: u64,
    /// One line per failed check.
    pub failures: Vec<String>,
}

impl Checks {
    /// No checks yet.
    pub fn new() -> Checks {
        Checks::default()
    }

    /// Record one check's verdict.
    pub fn record(&mut self, name: &str, verdict: Result<(), String>) {
        self.attempted += 1;
        if let Err(e) = verdict {
            self.failures.push(format!("{name}: {e}"));
        }
    }

    /// Record a check that reports every mismatch (empty = pass).
    pub fn record_all(&mut self, name: &str, mismatches: Vec<String>) {
        let verdict = if mismatches.is_empty() {
            Ok(())
        } else {
            Err(mismatches.join("; "))
        };
        self.record(name, verdict);
    }

    /// Record an operation that failed before any check could run.
    pub fn fail(&mut self, name: &str, error: impl std::fmt::Display) {
        self.record(name, Err(error.to_string()));
    }
}

/// Two serializable results must render byte-identically.
pub fn same_json<T: Serialize + ?Sized>(what: &str, expected: &T, got: &T) -> Result<(), String> {
    let e = serde_json::to_string(expected).map_err(|e| format!("{what}: {e}"))?;
    let g = serde_json::to_string(got).map_err(|e| format!("{what}: {e}"))?;
    if e == g {
        Ok(())
    } else {
        let at = e
            .bytes()
            .zip(g.bytes())
            .position(|(a, b)| a != b)
            .unwrap_or(e.len().min(g.len()));
        // byte windows around the first difference (lossy: a window may
        // cut a multi-byte character)
        let window = |s: &str| {
            let b = s.as_bytes();
            String::from_utf8_lossy(&b[at.saturating_sub(40)..(at + 40).min(b.len())]).into_owned()
        };
        Err(format!(
            "{what} differs at byte {at}: expected …{}… got …{}…",
            window(&e),
            window(&g)
        ))
    }
}

/// One 64-bit digest per storage chunk of `chunk` words (a brick, for
/// brick grids), over the exact bit patterns.
pub fn chunk_digests(raw: &[f64], chunk: usize) -> Vec<u64> {
    raw.chunks(chunk.max(1))
        .map(|c| {
            c.iter().fold(0xcbf2_9ce4_8422_2325u64, |h, v| {
                (h ^ v.to_bits())
                    .wrapping_mul(0x0000_0100_0000_01b3)
                    .rotate_left(29)
            })
        })
        .collect()
}

/// Two digest vectors (from [`chunk_digests`]) must agree everywhere.
pub fn digests_match(what: &str, expected: &[u64], got: &[u64]) -> Result<(), String> {
    if expected.len() != got.len() {
        return Err(format!(
            "{what}: {} chunks expected, {} produced",
            expected.len(),
            got.len()
        ));
    }
    let bad: Vec<usize> = (0..expected.len())
        .filter(|&i| expected[i] != got[i])
        .collect();
    match bad.first() {
        None => Ok(()),
        Some(first) => Err(format!(
            "{what}: {} of {} bricks differ in their bits (first: brick {first})",
            bad.len(),
            expected.len()
        )),
    }
}

/// Interior values of `got` must equal `reference`: bit for bit when
/// `rtol` is `None`, else within `rtol` relative (floor 1) tolerance.
pub fn interior_match(
    what: &str,
    reference: &DenseGrid,
    got: &DenseGrid,
    rtol: Option<f64>,
) -> Result<(), String> {
    if reference.extents() != got.extents() {
        return Err(format!("{what}: extents differ"));
    }
    let (nx, ny, nz) = reference.extents();
    for z in 0..nz as i64 {
        for y in 0..ny as i64 {
            for x in 0..nx as i64 {
                let (r, g) = (reference.get(x, y, z), got.get(x, y, z));
                let ok = match rtol {
                    None => r.to_bits() == g.to_bits(),
                    Some(tol) => (r - g).abs() <= tol * r.abs().max(g.abs()).max(1.0),
                };
                if !ok {
                    return Err(format!("{what}: ({x},{y},{z}) is {g:e}, reference {r:e}"));
                }
            }
        }
    }
    Ok(())
}
