//! Scans, selection, projection, sorting, aggregation, distinct, limit.

use super::Executor;
use crate::expr::{compile, CExpr};
use std::collections::HashMap;
use std::sync::Arc;
use wsq_common::{GroupKey, Result, Schema, Tuple, TupleBatch, Value, WsqError};
use wsq_sql::ast::{AggFunc, ColumnRef, Expr, Literal};
use wsq_storage::codec;
use wsq_storage::heap::{HeapCursor, HeapFile};

/// Sequential scan of a stored heap file, a page at a time: each heap
/// page is copied out of the buffer pool in one access and its rows are
/// decoded from the copy.
pub struct SeqScanExec {
    heap: Arc<HeapFile>,
    /// Qualified output schema (alias applied).
    schema: Schema,
    cursor: HeapCursor,
}

impl SeqScanExec {
    /// Scan `heap`, producing tuples under `schema` (already qualified).
    pub fn new(heap: Arc<HeapFile>, schema: Schema) -> Self {
        SeqScanExec {
            heap,
            schema,
            cursor: HeapCursor::new(),
        }
    }
}

impl Executor for SeqScanExec {
    fn schema(&self) -> &Schema {
        &self.schema
    }

    fn open(&mut self) -> Result<()> {
        self.cursor.rewind();
        Ok(())
    }

    fn next(&mut self) -> Result<Option<Tuple>> {
        match self.cursor.next(&self.heap)? {
            Some((_, rec)) => Ok(Some(codec::decode(&self.schema, rec)?)),
            None => Ok(None),
        }
    }

    /// Vectorized scan: one heap page per batch (capped at `max`). A
    /// page boundary ends the batch so each `next_batch` touches one
    /// page's worth of decode work.
    fn next_batch(&mut self, max: usize) -> Result<Option<TupleBatch>> {
        let max = max.max(1);
        let mut batch = TupleBatch::with_capacity(Arc::new(self.schema.clone()), max);
        loop {
            while batch.len() < max {
                match self.cursor.next_on_page() {
                    Some((_, rec)) => batch.push(codec::decode(&self.schema, rec)?),
                    None => break,
                }
            }
            // An exhausted page with nothing taken from it opens the next
            // one; rows in hand end the batch at the page boundary.
            if !batch.is_empty() || !self.cursor.next_page(&self.heap)? {
                break;
            }
        }
        Ok(if batch.is_empty() { None } else { Some(batch) })
    }
}

/// B+-tree equality lookup: resolve rids through the index, then fetch
/// the rows from the heap.
pub struct IndexScanExec {
    heap: Arc<HeapFile>,
    tree: Arc<wsq_storage::BTree>,
    schema: Schema,
    key: Vec<u8>,
    rids: Vec<wsq_storage::Rid>,
    pos: usize,
}

impl IndexScanExec {
    /// Scan rows of `heap` whose indexed column equals `key`.
    pub fn new(
        heap: Arc<HeapFile>,
        tree: Arc<wsq_storage::BTree>,
        schema: Schema,
        key: Value,
    ) -> Result<Self> {
        Ok(IndexScanExec {
            heap,
            tree,
            schema,
            key: wsq_storage::codec::encode_key(&key)?,
            rids: Vec::new(),
            pos: 0,
        })
    }
}

impl Executor for IndexScanExec {
    fn schema(&self) -> &Schema {
        &self.schema
    }

    fn open(&mut self) -> Result<()> {
        self.rids = self.tree.search(&self.key)?;
        self.pos = 0;
        Ok(())
    }

    fn next(&mut self) -> Result<Option<Tuple>> {
        if self.pos >= self.rids.len() {
            return Ok(None);
        }
        let rid = self.rids[self.pos];
        self.pos += 1;
        let bytes = self.heap.get(rid)?;
        Ok(Some(codec::decode(&self.schema, &bytes)?))
    }

    /// Vectorized lookup: fetch a slice of the resolved rid list per
    /// batch.
    fn next_batch(&mut self, max: usize) -> Result<Option<TupleBatch>> {
        let max = max.max(1);
        if self.pos >= self.rids.len() {
            return Ok(None);
        }
        let end = (self.pos + max).min(self.rids.len());
        let mut batch = TupleBatch::with_capacity(Arc::new(self.schema.clone()), end - self.pos);
        for &rid in &self.rids[self.pos..end] {
            let bytes = self.heap.get(rid)?;
            batch.push(codec::decode(&self.schema, &bytes)?);
        }
        self.pos = end;
        Ok(Some(batch))
    }
}

/// Literal rows.
pub struct ValuesExec {
    schema: Schema,
    rows: Vec<Tuple>,
    pos: usize,
}

impl ValuesExec {
    /// Emit `rows` under `schema`.
    pub fn new(schema: Schema, rows: Vec<Tuple>) -> Self {
        ValuesExec {
            schema,
            rows,
            pos: 0,
        }
    }
}

impl Executor for ValuesExec {
    fn schema(&self) -> &Schema {
        &self.schema
    }

    fn open(&mut self) -> Result<()> {
        self.pos = 0;
        Ok(())
    }

    fn next(&mut self) -> Result<Option<Tuple>> {
        if self.pos < self.rows.len() {
            self.pos += 1;
            Ok(Some(self.rows[self.pos - 1].clone()))
        } else {
            Ok(None)
        }
    }
}

/// Selection.
pub struct FilterExec {
    child: Box<dyn Executor>,
    predicate: CExpr,
    schema: Schema,
}

impl FilterExec {
    /// Filter `child` by `predicate` (compiled against the child schema).
    pub fn new(child: Box<dyn Executor>, predicate: &Expr) -> Result<Self> {
        let schema = child.schema().clone();
        let predicate = compile(predicate, &schema)?;
        Ok(FilterExec {
            child,
            predicate,
            schema,
        })
    }
}

impl Executor for FilterExec {
    fn schema(&self) -> &Schema {
        &self.schema
    }

    fn open(&mut self) -> Result<()> {
        self.child.open()
    }

    fn next(&mut self) -> Result<Option<Tuple>> {
        while let Some(t) = self.child.next()? {
            if self.predicate.eval_bool(&t)? {
                return Ok(Some(t));
            }
        }
        Ok(None)
    }

    /// Vectorized selection: evaluate the predicate over every row of a
    /// child batch into a selection vector, then compact survivors in
    /// place — no per-row reallocation (DESIGN.md §14).
    fn next_batch(&mut self, max: usize) -> Result<Option<TupleBatch>> {
        while let Some(mut b) = self.child.next_batch(max)? {
            let mut keep = Vec::with_capacity(b.len());
            for row in b.iter() {
                keep.push(self.predicate.eval_bool_row(row)?);
            }
            b.compact(&keep);
            if !b.is_empty() {
                return Ok(Some(b));
            }
        }
        Ok(None)
    }

    fn close(&mut self) -> Result<()> {
        self.child.close()
    }
}

/// Projection (expressions + renaming).
pub struct ProjectExec {
    child: Box<dyn Executor>,
    exprs: Vec<CExpr>,
    schema: Schema,
}

impl ProjectExec {
    /// Project `items` out of `child`.
    pub fn new(child: Box<dyn Executor>, items: &[(Expr, String)], schema: Schema) -> Result<Self> {
        let in_schema = child.schema();
        let exprs = items
            .iter()
            .map(|(e, _)| compile(e, in_schema))
            .collect::<Result<Vec<_>>>()?;
        Ok(ProjectExec {
            child,
            exprs,
            schema,
        })
    }
}

impl Executor for ProjectExec {
    fn schema(&self) -> &Schema {
        &self.schema
    }

    fn open(&mut self) -> Result<()> {
        self.child.open()
    }

    fn next(&mut self) -> Result<Option<Tuple>> {
        match self.child.next()? {
            Some(t) => {
                let mut vals = Vec::with_capacity(self.exprs.len());
                for e in &self.exprs {
                    vals.push(e.eval(&t)?);
                }
                Ok(Some(Tuple::new(vals)))
            }
            None => Ok(None),
        }
    }

    /// Vectorized projection: evaluate every output expression over the
    /// child batch's row views straight into a fresh batch.
    fn next_batch(&mut self, max: usize) -> Result<Option<TupleBatch>> {
        match self.child.next_batch(max)? {
            Some(b) => {
                let mut out = TupleBatch::with_capacity(Arc::new(self.schema.clone()), b.len());
                for row in b.iter() {
                    let mut vals = Vec::with_capacity(self.exprs.len());
                    for e in &self.exprs {
                        vals.push(e.eval_row(row)?);
                    }
                    out.push_row(vals);
                }
                Ok(Some(out))
            }
            None => Ok(None),
        }
    }

    fn close(&mut self) -> Result<()> {
        self.child.close()
    }
}

/// Materializing sort.
pub struct SortExec {
    child: Box<dyn Executor>,
    keys: Vec<(CExpr, bool)>,
    schema: Schema,
    sorted: Vec<Tuple>,
    pos: usize,
    /// Executor batch size for the materializing fill (1 = pull the
    /// child tuple-at-a-time, bit-identical to the classic pipeline).
    batch_size: usize,
}

impl SortExec {
    /// Sort `child` by `keys` (`(expr, descending)`). An integer literal
    /// key is an ordinal (`ORDER BY 2` = second output column).
    pub fn new(child: Box<dyn Executor>, keys: &[(Expr, bool)]) -> Result<Self> {
        let schema = child.schema().clone();
        let keys = keys
            .iter()
            .map(|(e, desc)| {
                let c = match e {
                    Expr::Literal(Literal::Int(k)) if *k >= 1 && (*k as usize) <= schema.len() => {
                        CExpr::Column(*k as usize - 1)
                    }
                    other => compile(other, &schema)?,
                };
                Ok((c, *desc))
            })
            .collect::<Result<Vec<_>>>()?;
        Ok(SortExec {
            child,
            keys,
            schema,
            sorted: Vec::new(),
            pos: 0,
            batch_size: 1,
        })
    }

    /// Pull the child through `next_batch(n)` during the materializing
    /// fill when `n > 1`. Materializing operators otherwise sever batch
    /// propagation: without a batch-aware fill, a Sort at the plan root
    /// would pull its ReqSync child tuple-at-a-time no matter what the
    /// session's batch size says.
    pub fn with_batch_size(mut self, n: usize) -> Self {
        self.batch_size = n.max(1);
        self
    }
}

impl Executor for SortExec {
    fn schema(&self) -> &Schema {
        &self.schema
    }

    fn open(&mut self) -> Result<()> {
        self.child.open()?;
        let mut rows: Vec<(Vec<Value>, Tuple)> = Vec::new();
        if self.batch_size > 1 {
            while let Some(b) = self.child.next_batch(self.batch_size)? {
                for t in b.into_tuples() {
                    let mut key = Vec::with_capacity(self.keys.len());
                    for (e, _) in &self.keys {
                        key.push(e.eval(&t)?);
                    }
                    rows.push((key, t));
                }
            }
        } else {
            while let Some(t) = self.child.next()? {
                let mut key = Vec::with_capacity(self.keys.len());
                for (e, _) in &self.keys {
                    key.push(e.eval(&t)?);
                }
                rows.push((key, t));
            }
        }
        self.child.close()?;
        // Validate all keys are comparable up front (placeholders would be
        // a clash-rule violation), then sort infallibly. The sort is
        // stable, so equal keys preserve input order.
        for (key, _) in &rows {
            for v in key {
                if v.is_pending() {
                    return Err(WsqError::Exec(
                        "sort key contains unresolved placeholder".to_string(),
                    ));
                }
            }
        }
        let descs: Vec<bool> = self.keys.iter().map(|(_, d)| *d).collect();
        rows.sort_by(|(ka, _), (kb, _)| {
            for ((a, b), desc) in ka.iter().zip(kb).zip(&descs) {
                let ord = a.compare(b).unwrap_or(std::cmp::Ordering::Equal);
                let ord = if *desc { ord.reverse() } else { ord };
                if ord != std::cmp::Ordering::Equal {
                    return ord;
                }
            }
            std::cmp::Ordering::Equal
        });
        self.sorted = rows.into_iter().map(|(_, t)| t).collect();
        self.pos = 0;
        Ok(())
    }

    fn next(&mut self) -> Result<Option<Tuple>> {
        if self.pos < self.sorted.len() {
            self.pos += 1;
            Ok(Some(self.sorted[self.pos - 1].clone()))
        } else {
            Ok(None)
        }
    }

    /// Vectorized emit: slice the materialized run per batch.
    fn next_batch(&mut self, max: usize) -> Result<Option<TupleBatch>> {
        let max = max.max(1);
        if self.pos >= self.sorted.len() {
            return Ok(None);
        }
        let end = (self.pos + max).min(self.sorted.len());
        let mut batch = TupleBatch::with_capacity(Arc::new(self.schema.clone()), end - self.pos);
        for t in &self.sorted[self.pos..end] {
            batch.push(t.clone());
        }
        self.pos = end;
        Ok(Some(batch))
    }
}

/// Duplicate elimination over complete tuples.
pub struct DistinctExec {
    child: Box<dyn Executor>,
    schema: Schema,
    seen: std::collections::HashSet<Vec<GroupKey>>,
}

impl DistinctExec {
    /// De-duplicate `child`.
    pub fn new(child: Box<dyn Executor>) -> Self {
        let schema = child.schema().clone();
        DistinctExec {
            child,
            schema,
            seen: Default::default(),
        }
    }
}

impl Executor for DistinctExec {
    fn schema(&self) -> &Schema {
        &self.schema
    }

    fn open(&mut self) -> Result<()> {
        self.seen.clear();
        self.child.open()
    }

    fn next(&mut self) -> Result<Option<Tuple>> {
        while let Some(t) = self.child.next()? {
            if t.is_incomplete() {
                return Err(WsqError::Exec(
                    "DISTINCT over unresolved placeholders (clash-rule violation)".to_string(),
                ));
            }
            let key: Vec<GroupKey> = t.values().iter().map(Value::group_key).collect();
            if self.seen.insert(key) {
                return Ok(Some(t));
            }
        }
        Ok(None)
    }

    fn close(&mut self) -> Result<()> {
        self.child.close()
    }
}

/// Row limit.
pub struct LimitExec {
    child: Box<dyn Executor>,
    schema: Schema,
    n: u64,
    emitted: u64,
}

impl LimitExec {
    /// Pass at most `n` rows of `child`.
    pub fn new(child: Box<dyn Executor>, n: u64) -> Self {
        let schema = child.schema().clone();
        LimitExec {
            child,
            schema,
            n,
            emitted: 0,
        }
    }
}

impl Executor for LimitExec {
    fn schema(&self) -> &Schema {
        &self.schema
    }

    fn open(&mut self) -> Result<()> {
        self.emitted = 0;
        self.child.open()
    }

    fn next(&mut self) -> Result<Option<Tuple>> {
        if self.emitted >= self.n {
            return Ok(None);
        }
        match self.child.next()? {
            Some(t) => {
                self.emitted += 1;
                Ok(Some(t))
            }
            None => Ok(None),
        }
    }

    fn close(&mut self) -> Result<()> {
        self.child.close()
    }
}

/// One aggregate accumulator.
#[derive(Debug, Clone)]
enum Acc {
    Count(i64),
    Sum(Option<Value>),
    Min(Option<Value>),
    Max(Option<Value>),
    Avg { sum: f64, n: i64 },
}

impl Acc {
    fn new(func: AggFunc) -> Acc {
        match func {
            AggFunc::Count => Acc::Count(0),
            AggFunc::Sum => Acc::Sum(None),
            AggFunc::Min => Acc::Min(None),
            AggFunc::Max => Acc::Max(None),
            AggFunc::Avg => Acc::Avg { sum: 0.0, n: 0 },
        }
    }

    fn update(&mut self, v: Option<&Value>) -> Result<()> {
        match self {
            Acc::Count(n) => {
                // COUNT(*) gets None-arg updates; COUNT(c) skips NULLs.
                match v {
                    None => *n += 1,
                    Some(val) if !val.is_null() => *n += 1,
                    Some(_) => {}
                }
            }
            Acc::Sum(acc) => {
                if let Some(val) = v.filter(|v| !v.is_null()) {
                    *acc = Some(match acc.take() {
                        None => val.clone(),
                        Some(Value::Int(a)) => match val {
                            Value::Int(b) => Value::Int(a + b),
                            other => Value::Float(a as f64 + other.as_float()?),
                        },
                        Some(Value::Float(a)) => Value::Float(a + val.as_float()?),
                        Some(other) => return Err(WsqError::Type(format!("cannot SUM {other}"))),
                    });
                }
            }
            Acc::Min(acc) => {
                if let Some(val) = v.filter(|v| !v.is_null()) {
                    let replace = match acc {
                        None => true,
                        Some(cur) => val.compare(cur)? == std::cmp::Ordering::Less,
                    };
                    if replace {
                        *acc = Some(val.clone());
                    }
                }
            }
            Acc::Max(acc) => {
                if let Some(val) = v.filter(|v| !v.is_null()) {
                    let replace = match acc {
                        None => true,
                        Some(cur) => val.compare(cur)? == std::cmp::Ordering::Greater,
                    };
                    if replace {
                        *acc = Some(val.clone());
                    }
                }
            }
            Acc::Avg { sum, n } => {
                if let Some(val) = v.filter(|v| !v.is_null()) {
                    *sum += val.as_float()?;
                    *n += 1;
                }
            }
        }
        Ok(())
    }

    fn finish(self) -> Value {
        match self {
            Acc::Count(n) => Value::Int(n),
            Acc::Sum(v) | Acc::Min(v) | Acc::Max(v) => v.unwrap_or(Value::Null),
            Acc::Avg { sum, n } => {
                if n == 0 {
                    Value::Null
                } else {
                    Value::Float(sum / n as f64)
                }
            }
        }
    }
}

/// Hash aggregation with optional grouping.
pub struct AggregateExec {
    child: Box<dyn Executor>,
    group_idx: Vec<usize>,
    aggs: Vec<(AggFunc, Option<CExpr>)>,
    schema: Schema,
    results: Vec<Tuple>,
    pos: usize,
}

impl AggregateExec {
    /// Aggregate `child` grouped by `group_by` columns.
    pub fn new(
        child: Box<dyn Executor>,
        group_by: &[ColumnRef],
        aggs: &[(AggFunc, Option<Expr>, String)],
        schema: Schema,
    ) -> Result<Self> {
        let in_schema = child.schema();
        let group_idx = group_by
            .iter()
            .map(|g| in_schema.resolve(g.qualifier.as_deref(), &g.name))
            .collect::<Result<Vec<_>>>()?;
        let aggs = aggs
            .iter()
            .map(|(f, a, _)| {
                let c = a.as_ref().map(|e| compile(e, in_schema)).transpose()?;
                Ok((*f, c))
            })
            .collect::<Result<Vec<_>>>()?;
        Ok(AggregateExec {
            child,
            group_idx,
            aggs,
            schema,
            results: Vec::new(),
            pos: 0,
        })
    }
}

impl Executor for AggregateExec {
    fn schema(&self) -> &Schema {
        &self.schema
    }

    fn open(&mut self) -> Result<()> {
        self.child.open()?;
        // Preserve first-seen group order for deterministic output.
        let mut groups: HashMap<Vec<GroupKey>, usize> = HashMap::new();
        let mut states: Vec<(Vec<Value>, Vec<Acc>)> = Vec::new();
        while let Some(t) = self.child.next()? {
            if t.is_incomplete() {
                return Err(WsqError::Exec(
                    "aggregation over unresolved placeholders (clash-rule violation)".to_string(),
                ));
            }
            let key: Vec<GroupKey> = self
                .group_idx
                .iter()
                .map(|&i| t.get(i).group_key())
                .collect();
            let slot = match groups.get(&key) {
                Some(&s) => s,
                None => {
                    let vals: Vec<Value> =
                        self.group_idx.iter().map(|&i| t.get(i).clone()).collect();
                    let accs: Vec<Acc> = self.aggs.iter().map(|(f, _)| Acc::new(*f)).collect();
                    states.push((vals, accs));
                    groups.insert(key, states.len() - 1);
                    states.len() - 1
                }
            };
            for ((_, cexpr), acc) in self.aggs.iter().zip(states[slot].1.iter_mut()) {
                match cexpr {
                    Some(e) => acc.update(Some(&e.eval(&t)?))?,
                    None => acc.update(None)?,
                }
            }
        }
        self.child.close()?;
        // A global aggregate (no GROUP BY) over empty input yields one row.
        if states.is_empty() && self.group_idx.is_empty() {
            states.push((
                vec![],
                self.aggs.iter().map(|(f, _)| Acc::new(*f)).collect(),
            ));
        }
        self.results = states
            .into_iter()
            .map(|(mut vals, accs)| {
                vals.extend(accs.into_iter().map(Acc::finish));
                Tuple::new(vals)
            })
            .collect();
        self.pos = 0;
        Ok(())
    }

    fn next(&mut self) -> Result<Option<Tuple>> {
        if self.pos < self.results.len() {
            self.pos += 1;
            Ok(Some(self.results[self.pos - 1].clone()))
        } else {
            Ok(None)
        }
    }
}
