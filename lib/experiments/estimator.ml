type t =
  | Add_model of Powermodel.Model.t
  | Compiled_model of Powermodel.Model.compiled
  | Characterized of Powermodel.Baselines.t

type mode = Interpreted | Compiled

(* The knob: a process-wide override, set by cfpm's --compiled flag; the
   default is the compiled path, since it is the one production queries
   take. *)
let override = Atomic.make None

let set_mode m = Atomic.set override (Some m)

let mode () = Option.value (Atomic.get override) ~default:Compiled

let add_model model =
  match mode () with
  | Compiled -> Compiled_model (Powermodel.Model.compile model)
  | Interpreted -> Add_model model

let name = function
  | Add_model _ | Compiled_model _ -> "ADD"
  | Characterized b -> Powermodel.Baselines.name b

let estimate t ~x_i ~x_f =
  match t with
  | Add_model m -> Powermodel.Model.switched_capacitance m ~x_i ~x_f
  | Compiled_model c ->
    Powermodel.Model.switched_capacitance_compiled c ~x_i ~x_f
  | Characterized b -> Powermodel.Baselines.estimate b ~x_i ~x_f

type run = { average : float; maximum : float }

let run t vectors =
  match t with
  | Add_model m ->
    let r = Powermodel.Model.run m vectors in
    { average = r.Powermodel.Model.average; maximum = r.Powermodel.Model.maximum }
  | Compiled_model c ->
    let r = Powermodel.Model.run_compiled c vectors in
    { average = r.Powermodel.Model.average; maximum = r.Powermodel.Model.maximum }
  | Characterized b ->
    let r = Powermodel.Baselines.run b vectors in
    {
      average = r.Powermodel.Baselines.average;
      maximum = r.Powermodel.Baselines.maximum;
    }
