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
  * the reference used in tests. `all` and `exceptionality` are the
  * production path: one Spark aggregation produces per-(set, value) cells
  * from which the score of *every* exclusion is reconstructed on the driver,
  * because each output row descends from exactly one (partitioned) input row.
  */
object Contribution {
  import Partition.LabelCol

  /** Reference implementation: materialise D_in − R, re-apply q, re-score. */
  def exact(step: Step, attr: String, partition: RowPartition, set: String,
            labeledIdx: Int = 0, maxBins: Int = 1024): Option[Double] = {
    val fullI   = Interestingness.score(step, attr, maxBins)
    val reduced = partition.labeled.where(!(col(LabelCol) <=> lit(set))).drop(LabelCol)
    val newStep = Step(step.inputs.updated(labeledIdx, reduced), step.op)
    val newI    = Interestingness.score(newStep, attr, maxBins)
    for { a <- fullI; b <- newI } yield a - b
  }

  /** Contributions of all sets in `partition` to `attr`, via the aggregation
    * fast path. Returns None when the measure does not apply to `attr`.
    */
  def all(step: Step, attr: String, partition: RowPartition,
          labeledIdx: Int = 0, maxBins: Int = 1024): Option[ContributionResult] =
    step.op match {
      case g: GroupByOp => groupByPath(step, g, attr, partition)
      case _ =>
        exceptionality(step, attr, Seq(partition), labeledIdx,
          { case (i, c) => Ks.keyExpr(step.inputs(i), c, maxBins) }).headOption
    }

  // ------------------------------------------------------ exceptionality path

  /** Filter, join and union: I = max over `step.sources(attr)` of KS(source,
    * output), for the full data and for every exclusion; C = I_full − I_excl.
    * Returns one result per partition of `parts` (all on input `labeledIdx`),
    * none when `attr` has no source. `keyOf` gives the KS key space of an
    * (input, column): the partitioned input's when it is a source, else the
    * first source's.
    *
    * One aggregation counts rows per (partition, set, key) on every side:
    * each source input (the partitioned one carries its labels, the others a
    * null label) and the output re-applied to the partitioned input, which
    * keeps the label. Removing a set removes its cells from the partitioned
    * input and the output, and no others, so the driver scores every
    * exclusion of every partition from these counts.
    */
  private[core] def exceptionality(step: Step, attr: String, parts: Seq[RowPartition], labeledIdx: Int,
                                   keyOf: ((Int, String)) => Ks.KeySpace): Seq[ContributionResult] = {
    val sources = step.sources(attr)
    if (sources.isEmpty || parts.isEmpty) return Seq.empty
    val labeledSide = sources.indexWhere(_._1 == labeledIdx) // -1: not a source
    val Ks.KeySpace(key, numeric) = keyOf(sources(labeledSide max 0))
    val outSide = sources.size // the output's count follows the sources'
    // A filter's output rows are a subset of its input rows: one scan of the
    // labeled input counts both sides, where a tagged union would read it twice.
    val (tagged, counts): (RowPartition => DataFrame, Seq[Column]) = step.op match {
      case FilterOp(pred) =>
        (_.labeled.select(col(LabelCol), key(col(attr)), expr(pred)),
          Seq(count(lit(1)), count_if(col("__s"))))
      case _ =>
        (p => {
          val ins = step.inputs.updated(labeledIdx, p.labeled)
          val sides = sources.map { case (i, c) =>
            ins(i).select(if (i == labeledIdx) col(LabelCol) else lit(null).cast("string"), key(col(c)))
          } :+ step.reapply(ins).select(col(LabelCol), key(col(attr)))
          sides.zipWithIndex.map { case (df, j) => df.withColumn("__s", lit(j)) }.reduce(_.unionAll(_))
        }, (0 to outSide).map(j => count_if(col("__s") === j)))
    }
    val rows = parts.zipWithIndex
      .map { case (p, i) => tagged(p).toDF("__l", "__k", "__s").withColumn("__p", lit(i)) }
      .reduce(_.unionAll(_))
      .groupBy("__p", "__l", "__k").agg(counts.head, counts.tail: _*).collect()
      .groupBy(_.getInt(0))
    parts.indices.map(i => scoreSets(rows.getOrElse(i, Array.empty).toSeq, outSide, labeledSide, numeric))
  }

  /** One partition's contributions from its (partition, set, key, count per
    * side) rows: `sides` source sides, then the output.
    */
  private def scoreSets(rows: Seq[Row], sides: Int, labeledSide: Int, numeric: Boolean): ContributionResult = {
    // (set, key, count per side); a null key only counts toward the shares
    val cells = rows.map { r =>
      (Option(r.getString(1)), Option(r.getString(2)), (0 to sides).map(j => r.getLong(3 + j)))
    }
    val keyed = cells.collect { case (l, Some(k), cs) => (l, k, cs) }

    def iScore(excluded: Option[String]): Double = {
      val live = keyed.filter(c => excluded.isEmpty || c._1 != excluded)
      def side(j: Int) = live.map { case (_, k, cs) => k -> cs(j) }
      (0 until sides).map(j => Ks.fromCounts(side(j), side(sides), numeric)).max
    }
    /** Set `s`'s share of side `j`'s rows, null keys included. */
    def share(j: Int, s: String): Option[Double] = {
      val total = cells.map(_._3(j)).sum
      Option.when(total > 0)(cells.collect { case (Some(`s`), _, cs) => cs(j) }.sum.toDouble / total)
    }

    val full   = iScore(None)
    val sets   = keyed.flatMap(_._1).distinct
    val perSet = sets.map(s => s -> (full - iScore(Some(s)))).toMap
    val stats  = sets.map(s => s -> SetStats(
      inShare = if (labeledSide < 0) None else share(labeledSide, s), outShare = share(sides, s))).toMap
    ContributionResult(full, perSet, stats)
  }

  // ---------------------------------------------------------- group-by path

  /** Group-by: I = CV of the group values of `attr` (Eq. 2); C = I_full − I_excl.
    * One aggregation gives a row per (group, set), read into a `Cell` of
    * `attr`'s partials, from which any exclusion's group values follow: count,
    * sum and mean exactly, min and max because the sets partition the rows.
    */
  private def groupByPath(step: Step, g: GroupByOp, attr: String,
                          partition: RowPartition): Option[ContributionResult] = {
    // the cell's row count, and the count, sum, min and max of non-null values
    final case class Cell(set: Option[String], rows: Long, n: Long, sum: Double,
                          min: Option[Double], max: Option[Double])
    val keyIdx = g.keys.indexOf(attr)
    // a numeric key is its own min and max, so it is explained as max
    val spec = if (keyIdx < 0) g.aggs.find(_.alias == attr)
               else Option.when(Ks.isNumeric(step.inputs.head, attr))(AggSpec("max", attr, attr))
    spec.map { case AggSpec(func, column, _) =>
      // Every aggregated column, not only `attr`: each column explained over
      // this partition sends the same query, so Spark compiles its plan once.
      val srcCols = g.aggs.map(_.column).filter(_ != "*").distinct
      val aggExprs =
        count(lit(1)).as("__cnt") +:
        srcCols.flatMap(c => Seq(
          sum(col(c).cast("double")).as(s"__sum__$c"),
          count(col(c)).as(s"__cntc__$c"),
          max(col(c).cast("double")).as(s"__max__$c"),
          min(col(c).cast("double")).as(s"__min__$c")))
      // each row: the keys, the set, the row count, then sum, count, max, min per source column
      val nk = g.keys.size
      val at = nk + 2 + 4 * srcCols.indexOf(column)
      def num(r: Row, i: Int) = Option.when(!r.isNullAt(i))(r.getAs[Number](i).doubleValue)
      val groups: Seq[Seq[Cell]] = partition.labeled
        .groupBy((g.keys.map(col) :+ col(LabelCol).as("__l")): _*)
        .agg(aggExprs.head, aggExprs.tail: _*)
        .collect().toSeq.map { r =>
          val (set, rows) = (Option(r.getString(nk)), r.getLong(nk + 1))
          val cell =
            if (keyIdx >= 0) Cell(set, rows, rows, 0.0, num(r, keyIdx), num(r, keyIdx))
            else if (column == "*") Cell(set, rows, rows, 0.0, None, None)
            else Cell(set, rows, r.getLong(at + 1), num(r, at).getOrElse(0.0), num(r, at + 3), num(r, at + 2))
          (0 until nk).map(i => Option(r.get(i)).map(_.toString)) -> cell
        }.groupMap(_._1)(_._2).values.toSeq

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

      // Caption stats: a group belongs to the set holding a plurality of its rows.
      val (_, mu, sd) = Diversity.moments(values)
      val setMeans: Map[String, Double] = groups.flatMap { cs =>
        val dominant = cs.groupMapReduce(_.set)(_.rows)(_ + _).maxBy(_._2)._1
        for { d <- dominant; v <- value(cs, None) } yield d -> v
      }.groupMap(_._1)(_._2).map { case (s, vs) => s -> vs.sum / vs.size }
      val stats = sets.map(s => s -> SetStats(
        setMean = setMeans.get(s), overallMean = Some(mu), overallSd = Some(sd))).toMap
      ContributionResult(full, perSet, stats)
    }
  }
}
