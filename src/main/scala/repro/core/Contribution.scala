package repro.core

import org.apache.spark.sql.functions._
import org.apache.spark.sql.{Column, DataFrame, Row}

/** Numbers attached to each set-of-rows for caption generation (§3.7).
  *
  * For exceptionality explanations: the set's share of the input and of the
  * output. For diversity explanations: the mean aggregated value of the set's
  * groups versus the mean and standard deviation over all groups.
  */
final case class SetStats(inShare: Option[Double] = None, outShare: Option[Double] = None,
                          setMean: Option[Double] = None, overallMean: Option[Double] = None,
                          overallSd: Option[Double] = None)

/** Contributions of every set in a partition to one output attribute.
  *
  * @param full   I_A(Q) over the full data, as computed by the fast path
  * @param perSet set label → C(R, A, Q) (Def. 3.3)
  * @param stats  set label → caption statistics
  */
final case class ContributionResult(full: Double, perSet: Map[String, Double],
                                    stats: Map[String, SetStats]) {
  /** Standardized contribution C̄ (§3.6) of each set, w.r.t. its partition.
    * It is 0 for every set when the partition has a single set, or when the
    * C values differ only by rounding: a sample deviation
    * `sd <= 1e-12 * max(1, max |C|)` counts as zero.
    */
  lazy val standardized: Map[String, Double] = {
    val vs = perSet.values.toIndexedSeq
    if (vs.size < 2) perSet.map { case (k, _) => k -> 0.0 }
    else {
      val mu = vs.sum / vs.size
      val sd = math.sqrt(vs.map(v => (v - mu) * (v - mu)).sum / (vs.size - 1))
      if (sd <= 1e-12 * math.max(1.0, vs.map(math.abs).max)) perSet.map { case (k, _) => k -> 0.0 }
      else perSet.map { case (k, v) => k -> (v - mu) / sd }
    }
  }
}

/** Contribution of a set-of-rows (paper Def. 3.3):
  * `C(R,A,Q) = I_A(D_in, q, d_out) − I_A(D_in − R, q, d'_out)`.
  *
  * `exact` is the literal interventional semantics (re-run q per exclusion) —
  * the reference used in tests. `ofTarget` (and `all`, its one-partition
  * case) is the production path: one Spark aggregation produces per-set cells
  * from which the score of *every* exclusion is reconstructed on the driver,
  * because each output row descends from exactly one (partitioned) input row.
  */
object Contribution {
  import Partition.LabelCol

  /** Reference implementation: materialise D_in − R, re-apply q, re-score. */
  def exact(step: Step, attr: String, partition: RowPartition, set: String,
            labeledIdx: Int = 0, maxBins: Int = Ks.MaxBins): Option[Double] = {
    val fullI   = Interestingness.score(step, attr, maxBins)
    val reduced = partition.labeled.where(!(col(LabelCol) <=> lit(set))).drop(LabelCol)
    val newStep = Step(step.inputs.updated(labeledIdx, reduced), step.op)
    val newI    = Interestingness.score(newStep, attr, maxBins)
    for { a <- fullI; b <- newI } yield a - b
  }

  /** Contributions of all sets in `partition` to `attr`: `ofTarget` of one
    * column and one partition. Returns None when the measure does not apply.
    */
  def all(step: Step, attr: String, partition: RowPartition,
          labeledIdx: Int = 0, maxBins: Int = Ks.MaxBins): Option[ContributionResult] =
    ofTarget(step, Seq(attr), Seq(partition), labeledIdx,
      { case (i, c) => Ks.keySpaces(step.inputs(i), Seq(c), maxBins)(c) }).headOption.map(_._3)

  /** Contributions of every partition of `parts` (all on input `labeledIdx`)
    * to each column of `attrs` the measure applies to, as (column, partition,
    * result), column by column: one query in all for either measure. `keyOf`
    * gives the KS key space of an (input, column). `Interestingness.scores`
    * passes one partition whose labels are all null and reads each `full`.
    */
  def ofTarget(step: Step, attrs: Seq[String], parts: Seq[RowPartition], labeledIdx: Int,
               keyOf: ((Int, String)) => Ks.KeySpace): Seq[(String, RowPartition, ContributionResult)] = {
    val frames = parts.map(_.labeled)
    (step.op match {
      case g: GroupByOp => diversity(step, g, attrs, frames)
      case _ => exceptionality(step, attrs, frames, labeledIdx, keyOf)
    }).map { case (a, f, r) => (a, parts(f), r) }
  }

  /** One aggregation over the union of `frames`, grouped by `by`, whose
    * first column is an int index. Collected once and split by that index;
    * each row holds `by`, then `aggs`.
    */
  private def byIndex(frames: Seq[DataFrame], by: Seq[String], aggs: Seq[Column]): Map[Int, Seq[Row]] =
    frames.reduce(_.unionAll(_)).groupBy(by.map(col): _*).agg(aggs.head, aggs.tail: _*)
      .collect().toSeq.groupBy(_.getInt(0))

  // ------------------------------------------------------ exceptionality path

  /** One KS comparison: output column `attr` against `column` of input
    * `input`, both counted in the source's key space `space`.
    */
  private final case class Comparison(attr: String, input: Int, column: String, space: Ks.KeySpace)

  /** Filter, join and union: I = max over `step.sources(attr)` of KS(source,
    * output), for the full data and for every exclusion; C = I_full − I_excl.
    * Returns (column, frame index, result) for every column of `attrs` with a
    * source and every frame of `labeled`, column by column. Each frame takes
    * the place of input `labeledIdx` and carries the set labels.
    *
    * One aggregation counts rows per (comparison, set, key) on the input and
    * on the output side. Each (frame, column, source) comparison has an int
    * index, and each row emits one (index, key) pair per comparison its frame
    * feeds, keyed in that source's key space: a source input those of its own
    * comparisons (the partitioned input with its labels), the output
    * re-applied to the frame, which keeps the label, those of all. The other
    * source inputs are the same in every frame, so one scan of each counts
    * them, with a null label, for all frames. A filter's output rows are a
    * subset of its input rows, so one scan of the frame counts every row on
    * the input side and the rows where the predicate holds on the output side
    * too. Removing a set removes its cells from the partitioned input and the
    * output, and no others, so the driver scores every exclusion of every
    * frame from these counts.
    */
  private[core] def exceptionality(step: Step, attrs: Seq[String], labeled: Seq[DataFrame], labeledIdx: Int,
                                   keyOf: ((Int, String)) => Ks.KeySpace): Seq[(String, Int, ContributionResult)] = {
    val cmps = attrs.flatMap(a => step.sources(a).map { case (i, c) => Comparison(a, i, c, keyOf((i, c))) })
    if (cmps.isEmpty || labeled.isEmpty) return Seq.empty
    val m = cmps.size
    // (index, set, key, on the input side, on the output side) of each row of
    // `df` for the comparisons `js`, indexed from `from`, whose column in `df` is `column`
    def emit(df: DataFrame, from: Int, label: Column, js: Seq[Int], column: Comparison => String,
             in: Column, out: Column): DataFrame = {
      val pairs = js.map(j => struct(lit(from + j).as("j"), cmps(j).space.key(col(column(cmps(j)))).as("k")))
      df.select(explode(array(pairs: _*)).as("t"), label.as("l"), in.as("i"), out.as("o"))
        .select("t.j", "l", "t.k", "i", "o")
    }
    def own(i: Int) = cmps.indices.filter(cmps(_).input == i)
    // the other source inputs' cells, shared by every frame, from index `shared`
    val shared = labeled.size * m
    val frames = step.op match {
      case FilterOp(pred) => labeled.zipWithIndex.map { case (df, f) =>
        emit(df, f * m, col(LabelCol), cmps.indices, _.column, lit(true), expr(pred)) }
      case _ =>
        step.inputs.indices.filter(i => i != labeledIdx && own(i).nonEmpty).map { i =>
          emit(step.inputs(i), shared, lit(null).cast("string"), own(i), _.column, lit(true), lit(false))
        } ++ labeled.zipWithIndex.flatMap { case (df, f) =>
          Option.when(own(labeledIdx).nonEmpty)(
            emit(df, f * m, col(LabelCol), own(labeledIdx), _.column, lit(true), lit(false))).toSeq :+
            emit(step.reapply(step.inputs.updated(labeledIdx, df)), f * m, col(LabelCol), cmps.indices, _.attr,
              lit(false), lit(true))
        }
    }
    val rows = byIndex(frames, Seq("j", "l", "k"), Seq(count_if(col("i")), count_if(col("o"))))
    for {
      a <- attrs
      js = cmps.indices.filter(cmps(_).attr == a) if js.nonEmpty
      f <- labeled.indices
    } yield {
      val sides = js.map(j => (Seq(f * m + j, shared + j).flatMap(rows.getOrElse(_, Seq.empty)), cmps(j).space.numeric))
      (a, f, scoreSets(sides, js.indexWhere(cmps(_).input == labeledIdx)))
    }
  }

  /** One (column, frame)'s contributions from the (index, set, key, input
    * count, output count) rows of each of the column's comparisons, with
    * whether its keys compare numerically. `labeledSide` is the comparison
    * against the partitioned input, -1 when it is not a source.
    */
  private def scoreSets(sides: Seq[(Seq[Row], Boolean)], labeledSide: Int): ContributionResult = {
    // per side, (set, key, input count, output count); a null key only counts toward the shares
    val cells = sides.map(_._1.map(r => (Option(r.getString(1)), Option(r.getString(2)), r.getLong(3), r.getLong(4))))

    def iScore(excluded: Option[String]): Double = cells.zip(sides.map(_._2)).map { case (cs, numeric) =>
      val live = cs.collect { case (l, Some(k), in, out) if excluded.isEmpty || l != excluded => (k, in, out) }
      Ks.fromCounts(live.map(c => c._1 -> c._2), live.map(c => c._1 -> c._3), numeric)
    }.max
    /** Set `s`'s share of the rows of one side, from (set, count) cells, null keys included. */
    def share(counts: Seq[(Option[String], Long)], s: String): Option[Double] = {
      val total = counts.map(_._2).sum
      Option.when(total > 0)(counts.collect { case (Some(`s`), n) => n }.sum.toDouble / total)
    }

    val full   = iScore(None)
    val sets   = cells.flatten.collect { case (Some(l), Some(_), _, _) => l }.distinct
    val perSet = sets.map(s => s -> (full - iScore(Some(s)))).toMap
    // each output row is counted once on every side's output, so any side gives its shares
    val stats  = sets.map(s => s -> SetStats(
      inShare = cells.lift(labeledSide).flatMap(cs => share(cs.map(c => c._1 -> c._3), s)),
      outShare = share(cells.head.map(c => c._1 -> c._4), s))).toMap
    ContributionResult(full, perSet, stats)
  }

  // ---------------------------------------------------------- group-by path

  // a (partition, group, set) cell's row count, and the count, sum, min and
  // max of the explained column's non-null values
  private final case class Cell(set: Option[String], rows: Long, n: Long, sum: Double,
                                min: Option[Double], max: Option[Double])

  /** Group-by: I = CV of the group values of a numeric output column (Eq. 2);
    * C = I_full − I_excl. Returns (column, frame index, result) for every
    * numeric column of `attrs` and every frame of `labeled`, column by
    * column. One aggregation gives a row per (frame, group, set) with the
    * partials of each explained column, read into `Cell`s from which any
    * exclusion's group values follow: count, sum and mean exactly, min and
    * max as the sets partition the rows.
    */
  private def diversity(step: Step, g: GroupByOp, attrs: Seq[String],
                        labeled: Seq[DataFrame]): Seq[(String, Int, ContributionResult)] = {
    // a numeric key is its own min and max, so it is explained as max
    val specs = attrs.flatMap { a =>
      (if (g.keys.contains(a)) Some(AggSpec("max", a, a)) else g.aggs.find(_.alias == a))
        .filter(_ => Ks.isNumeric(step.output, a)).map(a -> _)
    }
    if (specs.isEmpty || labeled.isEmpty) return Seq.empty
    val srcCols = specs.map(_._2.column).filter(_ != "*").distinct
    val aggExprs = count(lit(1)) +: srcCols.flatMap { c =>
      val v = col(c).cast("double")
      Seq(sum(v), count(col(c)), max(v), min(v))
    }
    // each row: the frame, the keys, the set, the row count, then sum,
    // count, max, min per explained source column
    val rows = byIndex(labeled.zipWithIndex.map { case (df, f) => df.withColumn("__p", lit(f)) },
      "__p" +: g.keys :+ LabelCol, aggExprs)
    val nk = g.keys.size
    def num(r: Row, i: Int) = Option.when(!r.isNullAt(i))(r.getAs[Number](i).doubleValue)
    for { (a, AggSpec(func, column, _)) <- specs; f <- labeled.indices } yield {
      val at = nk + 3 + 4 * srcCols.indexOf(column)
      val groups: Seq[Seq[Cell]] = rows.getOrElse(f, Seq.empty).map { r =>
        val (set, n) = (Option(r.getString(nk + 1)), r.getLong(nk + 2))
        val cell =
          if (column == "*") Cell(set, n, n, 0.0, None, None)
          else Cell(set, n, r.getLong(at + 1), num(r, at).getOrElse(0.0), num(r, at + 3), num(r, at + 2))
        (1 to nk).map(i => Option(r.get(i)).map(_.toString)) -> cell
      }.groupMap(_._1)(_._2).values.toSeq
      (a, f, scoreGroups(groups, func))
    }
  }

  /** One (column, partition)'s contributions from the cells of each group,
    * for the column's aggregate `func`.
    */
  private def scoreGroups(groups: Seq[Seq[Cell]], func: String): ContributionResult = {
    // The group's value without `excluded`'s rows: None when no row is left
    // or the aggregate is null, as in Spark.
    def value(cells: Seq[Cell], excluded: Option[String]): Option[Double] = {
      val live = cells.filter(c => excluded.isEmpty || c.set != excluded)
      val n    = live.map(_.n).sum
      if (live.isEmpty) None
      else func match {
        case "count"        => Some(n.toDouble)
        case "sum"          => Option.when(n > 0)(live.map(_.sum).sum)
        case "mean" | "avg" => Option.when(n > 0)(live.map(_.sum).sum / n)
        case "max"          => live.flatMap(_.max).maxOption
        case "min"          => live.flatMap(_.min).minOption
      }
    }

    val values = groups.flatMap(value(_, None))
    val full   = Diversity.cv(values)
    val sets   = groups.flatten.flatMap(_.set).distinct
    val perSet = sets.map(s => s -> (full - Diversity.cv(groups.flatMap(value(_, Some(s)))))).toMap

    // Caption stats: a group belongs to the set holding a plurality of its
    // rows, the greatest label on a tie, whatever order the rows came in.
    val (_, mu, sd) = Diversity.moments(values)
    val setMeans: Map[String, Double] = groups.flatMap { cs =>
      val dominant = cs.groupMapReduce(_.set)(_.rows)(_ + _).maxBy(_.swap)._1
      for { d <- dominant; v <- value(cs, None) } yield d -> v
    }.groupMap(_._1)(_._2).map { case (s, vs) => s -> vs.sum / vs.size }
    val stats = sets.map(s => s -> SetStats(
      setMean = setMeans.get(s), overallMean = Some(mu), overallSd = Some(sd))).toMap
    ContributionResult(full, perSet, stats)
  }
}
