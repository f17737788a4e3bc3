//! Compressed rows: a table of variable-length rows held in one array.
//!
//! Row `i` is `items[offsets[i]..offsets[i + 1]]`. Built once — row by row
//! with [`Rows::push_row`], or from `(row, item)` pairs by a counting sort
//! with [`Rows::scatter`] — and read by index, a table of `n` rows costs two
//! allocations instead of `n`.

/// `len()` rows of `T`s in one array.
#[derive(Clone, Debug)]
pub struct Rows<T> {
    offsets: Vec<u32>,
    items: Vec<T>,
}

impl<T> Default for Rows<T> {
    fn default() -> Self {
        Rows {
            offsets: vec![0],
            items: Vec::new(),
        }
    }
}

fn narrow(n: usize) -> u32 {
    u32::try_from(n).expect("rows are counted in u32")
}

impl<T> Rows<T> {
    /// Number of rows.
    pub fn len(&self) -> usize {
        self.offsets.len() - 1
    }

    /// Whether the table has no rows.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Row `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i >= self.len()`.
    pub fn row(&self, i: usize) -> &[T] {
        &self.items[self.offsets[i] as usize..self.offsets[i + 1] as usize]
    }

    /// Every item, row after row.
    pub fn items(&self) -> &[T] {
        &self.items
    }

    /// Every row, in order.
    pub fn iter(&self) -> impl ExactSizeIterator<Item = &[T]> + '_ {
        (0..self.len()).map(move |i| self.row(i))
    }

    /// Appends a row.
    pub fn push_row(&mut self, row: impl IntoIterator<Item = T>) {
        self.items.extend(row);
        self.offsets.push(narrow(self.items.len()));
    }

    /// Appends empty rows until there are `len`.
    pub fn pad_to(&mut self, len: usize) {
        let end = narrow(self.items.len());
        self.offsets.resize(len.max(self.len()) + 1, end);
    }
}

impl<T: Copy> Rows<T> {
    /// `n` rows from `(row, item)` pairs, each row holding its items in the
    /// order the pairs name them: a counting sort, walking `pairs` twice.
    ///
    /// # Panics
    ///
    /// Panics if a pair names a row `>= n`.
    pub fn scatter<I: Iterator<Item = (usize, T)> + Clone>(n: usize, pairs: I) -> Rows<T> {
        let mut rows = Scatter::new(n);
        for (row, _) in pairs.clone() {
            rows.count(row);
        }
        for (row, item) in pairs {
            rows.place(row, item);
        }
        rows.finish()
    }
}

/// [`Rows::scatter`]'s counting sort with the caller driving both walks, so
/// that one walk can fill several tables: [`Scatter::count`] every item's
/// row, then [`Scatter::place`] the items in the order each row keeps.
pub struct Scatter<T> {
    offsets: Vec<u32>,
    /// Per row, where its next item goes; empty while counting.
    next: Vec<u32>,
    items: Vec<T>,
}

impl<T: Copy> Scatter<T> {
    /// A table of `n` rows, every row empty so far.
    pub fn new(n: usize) -> Scatter<T> {
        Scatter {
            offsets: vec![0; n + 1],
            next: Vec::new(),
            items: Vec::new(),
        }
    }

    /// Counts one more item for `row`, before the first
    /// [`Scatter::place`].
    pub fn count(&mut self, row: usize) {
        debug_assert!(self.next.is_empty(), "counted after placing");
        self.offsets[row + 1] += 1;
    }

    /// Puts `item` at the end of `row`'s items so far; `row` receives no
    /// more items than were counted for it.
    pub fn place(&mut self, row: usize, item: T) {
        if self.next.is_empty() {
            self.close_counts();
            let total = self.offsets[self.offsets.len() - 1] as usize;
            self.items = vec![item; total];
        }
        let at = &mut self.next[row];
        debug_assert!(
            *at < self.offsets[row + 1],
            "row {row} placed past its count"
        );
        self.items[*at as usize] = item;
        *at += 1;
    }

    /// Row sizes to offsets, and every row's cursor at its start.
    fn close_counts(&mut self) {
        for i in 1..self.offsets.len() {
            self.offsets[i] += self.offsets[i - 1];
        }
        self.next = self.offsets.clone();
    }

    /// The finished table.
    pub fn finish(mut self) -> Rows<T> {
        if self.next.is_empty() {
            self.close_counts();
        }
        Rows {
            offsets: self.offsets,
            items: self.items,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pushed_and_scattered_rows_agree() {
        let mut pushed: Rows<u32> = Rows::default();
        pushed.push_row([3, 1]);
        pushed.pad_to(3);
        pushed.push_row([7]);
        pushed.pad_to(5);
        let pairs = [(0, 3), (3, 7), (0, 1)];
        let scattered = Rows::scatter(5, pairs.iter().copied());
        for rows in [&pushed, &scattered] {
            assert_eq!(rows.len(), 5);
            let got: Vec<&[u32]> = (0..5).map(|i| rows.row(i)).collect();
            assert_eq!(got, [&[3, 1][..], &[], &[], &[7], &[]]);
        }
        assert_eq!(Rows::<u32>::scatter(2, std::iter::empty()).row(1), &[]);
    }
}
