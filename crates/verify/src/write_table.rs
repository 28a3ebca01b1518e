//! The layout's write table, re-derived from its chains.
//!
//! Every healthy store, `repro`'s write figures and the planners behind
//! them read [`Layout::write_table`]: the parities each data ordinal's
//! write renews, each parity's chain members and its level in the
//! parity-into-parity dependency order. A wrong entry would plan a write
//! that skips a parity or renews one before a parity it reads, so this
//! module derives all three from nothing but [`Layout::chains`] — a scan
//! of every chain per step, none of the layout's membership or ownership
//! indexes — and requires the table to equal it, entry for entry and in
//! order.

use std::fmt;

use raid_core::plan::write::WriteTable;
use raid_core::{Cell, ChainId, Layout};

/// A write table that disagrees with its layout's chains.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WriteTableError {
    /// The table covers a different number of data ordinals or parities.
    Shape {
        /// `"data ordinals"` or `"parities"`.
        what: &'static str,
        /// The table's count.
        table: usize,
        /// The chains' count.
        chains: usize,
    },
    /// A data ordinal's renewed parities, or their order, differ.
    Renews {
        /// The data ordinal.
        ordinal: usize,
        /// What the table lists.
        table: Vec<Cell>,
        /// What the chains give.
        chains: Vec<Cell>,
    },
    /// A parity's chain members, or their order, differ.
    Members {
        /// The parity.
        parity: Cell,
        /// What the table lists.
        table: Vec<Cell>,
        /// The chain's members.
        chains: Vec<Cell>,
    },
    /// A parity's level in the dependency order differs.
    Level {
        /// The parity.
        parity: Cell,
        /// The table's level.
        table: usize,
        /// The level the chains give.
        chains: usize,
    },
}

impl fmt::Display for WriteTableError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let cells =
            |cells: &[Cell]| cells.iter().map(Cell::to_string).collect::<Vec<_>>().join(" ");
        match self {
            WriteTableError::Shape { what, table, chains } => {
                write!(f, "write table covers {table} {what}, the chains {chains}")
            }
            WriteTableError::Renews { ordinal, table, chains } => write!(
                f,
                "write table renews [{}] for data ordinal {ordinal}, the chains [{}]",
                cells(table),
                cells(chains)
            ),
            WriteTableError::Members { parity, table, chains } => write!(
                f,
                "write table lists members [{}] for parity {parity}, its chain [{}]",
                cells(table),
                cells(chains)
            ),
            WriteTableError::Level { parity, table, chains } => write!(
                f,
                "write table puts parity {parity} at level {table}, the chains at {chains}"
            ),
        }
    }
}

impl std::error::Error for WriteTableError {}

/// Checks `table` against `layout`'s chains: for every data ordinal its
/// renewed parities in breadth-first cascade order, for every parity its
/// chain's members and its level.
///
/// # Errors
///
/// The first [`WriteTableError`] found.
pub fn check_write_table(layout: &Layout, table: &WriteTable) -> Result<(), WriteTableError> {
    let chains = layout.chains();
    let data = layout.data_cells();
    if table.ordinals() != data.len() {
        let (table, chains) = (table.ordinals(), data.len());
        return Err(WriteTableError::Shape { what: "data ordinals", table, chains });
    }
    if table.parities() != chains.len() {
        let (table, chains) = (table.parities(), chains.len());
        return Err(WriteTableError::Shape { what: "parities", table, chains });
    }
    for (ordinal, &cell) in data.iter().enumerate() {
        let derived = renewed_by(layout, cell);
        if table.renews(ordinal) != derived.as_slice() {
            let table = table.renews(ordinal).to_vec();
            return Err(WriteTableError::Renews { ordinal, table, chains: derived });
        }
    }
    let levels = levels(layout);
    for (id, chain) in chains.iter().enumerate() {
        let parity = chain.parity;
        if table.members(ChainId(id)) != chain.members.as_slice() {
            let table = table.members(ChainId(id)).to_vec();
            return Err(WriteTableError::Members { parity, table, chains: chain.members.clone() });
        }
        if table.level(ChainId(id)) != levels[id] {
            let table = table.level(ChainId(id));
            return Err(WriteTableError::Level { parity, table, chains: levels[id] });
        }
    }
    Ok(())
}

/// The parities a change of data cell `cell` renews: breadth-first from
/// `cell`, each step's chains in chain order, each parity once.
fn renewed_by(layout: &Layout, cell: Cell) -> Vec<Cell> {
    let mut renewed: Vec<Cell> = Vec::new();
    let mut queue = vec![cell];
    let mut next = 0;
    while let Some(&cur) = queue.get(next) {
        next += 1;
        for chain in layout.chains().iter().filter(|chain| chain.members.contains(&cur)) {
            if !renewed.contains(&chain.parity) {
                renewed.push(chain.parity);
                queue.push(chain.parity);
            }
        }
    }
    renewed
}

/// Each chain's level: 0 when none of its members is another chain's
/// parity, else one more than the highest level among those chains,
/// settled in rounds. A cyclic layout settles nothing more in some round
/// and leaves its cycle at level `usize::MAX`.
fn levels(layout: &Layout) -> Vec<usize> {
    let chains = layout.chains();
    let owner = |m: &Cell| chains.iter().position(|chain| chain.parity == *m);
    let mut level: Vec<Option<usize>> = vec![None; chains.len()];
    loop {
        let mut settled = false;
        for (id, chain) in chains.iter().enumerate() {
            let below: Option<Vec<usize>> =
                chain.members.iter().filter_map(owner).map(|c| level[c]).collect();
            if let (None, Some(below)) = (level[id], below) {
                level[id] = Some(below.iter().map(|l| l + 1).max().unwrap_or(0));
                settled = true;
            }
        }
        if !settled {
            return level.into_iter().map(|l| l.unwrap_or(usize::MAX)).collect();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{build, CODE_NAMES};

    /// `layout`'s table rebuilt from its parts, with `edit` applied.
    fn edited(
        layout: &Layout,
        edit: impl FnOnce(&mut Vec<Vec<Cell>>, &mut Vec<Vec<Cell>>, &mut Vec<usize>),
    ) -> WriteTable {
        let table = layout.write_table();
        let mut renews: Vec<Vec<Cell>> =
            (0..table.ordinals()).map(|ord| table.renews(ord).to_vec()).collect();
        let ids = (0..table.parities()).map(ChainId);
        let mut members: Vec<Vec<Cell>> =
            ids.clone().map(|id| table.members(id).to_vec()).collect();
        let mut levels: Vec<usize> = ids.map(|id| table.level(id)).collect();
        edit(&mut renews, &mut members, &mut levels);
        WriteTable::from_parts(renews, members, levels)
    }

    #[test]
    fn every_code_s_table_is_its_chains() {
        for name in CODE_NAMES {
            for p in [5usize, 7] {
                let code = build(name, p).unwrap();
                let layout = code.layout();
                assert_eq!(check_write_table(layout, layout.write_table()), Ok(()), "{name} p={p}");
                assert_eq!(&edited(layout, |_, _, _| ()), layout.write_table());
            }
        }
    }

    #[test]
    fn a_corrupted_table_fails_naming_what_differs() {
        // RDP cascades its row parities into the diagonal ones, so every
        // part of its table has something to corrupt.
        let code = build("rdp", 5).unwrap();
        let layout = code.layout();
        let check = |table: WriteTable| check_write_table(layout, &table).unwrap_err();

        let swapped = check(edited(layout, |renews, _, _| renews[0].swap(0, 1)));
        assert!(matches!(swapped, WriteTableError::Renews { ordinal: 0, .. }), "{swapped}");
        let dropped = check(edited(layout, |renews, _, _| {
            renews[3].pop();
        }));
        assert!(matches!(dropped, WriteTableError::Renews { ordinal: 3, .. }), "{dropped}");

        let parity = layout.chains()[2].parity;
        let members = check(edited(layout, |_, members, _| members[2].reverse()));
        assert!(matches!(members, WriteTableError::Members { parity: p, .. } if p == parity));

        let cascading =
            (0..layout.chains().len()).find(|&id| layout.write_table().level(ChainId(id)) > 0);
        let id = cascading.expect("RDP has a cascading parity");
        let flat = check(edited(layout, |_, _, levels| levels[id] = 0));
        let parity = layout.chains()[id].parity;
        assert_eq!(flat, WriteTableError::Level { parity, table: 0, chains: 1 });

        let short = check(edited(layout, |renews, _, _| {
            renews.pop();
        }));
        assert!(matches!(short, WriteTableError::Shape { what: "data ordinals", .. }), "{short}");
        assert!(short.to_string().starts_with("write table covers"), "{short}");
    }

    #[test]
    fn a_corrupted_table_fails_check_code_s_error_type() {
        let code = build("hv", 5).unwrap();
        let layout = code.layout();
        let table = edited(layout, |renews, _, _| renews[1].clear());
        let err = crate::CheckError::WriteTable(check_write_table(layout, &table).unwrap_err());
        let named = matches!(
            &err,
            crate::CheckError::WriteTable(WriteTableError::Renews { ordinal: 1, .. })
        );
        assert!(named && err.to_string().contains("for data ordinal 1"), "{err}");
    }
}
